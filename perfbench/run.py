"""fusiondepth benchmark: training steps, cold predict and eval throughput.

    python3 perfbench/run.py --workload default64 --seed 0 --seconds 48 --trace 0

Run from the repository root. One process, one BLAS/OpenMP thread. Each
workload is a closed-loop user session, repeated in a fixed number of rounds:

  setup    render and write the scenes, write a seeded checkpoint, one
           warm-up predict (timed as part of `setup_s`)
  infer    `cli.main(["predict", ...])` in process, alternating without and
           with `--pp`, interleaved with `cli.main(["eval", "--pp", ...])`
           over the round's scenes, until the round's share of `--seconds`
           is spent
  train    `training.run_schedule` for a fixed number of stage-1 epochs on
           one scene; a step is the time between consecutive `log` calls
           (the first epoch is warm-up and counts as set-up)

Inference runs before training so `infer_peak_rss_mb` shows the inference
path alone. Every output is checked (finite losses, identical loss sequences
across rounds, loss_ratio < 1, predicted PGM extents and range, eval CSV
shape, eval of the seeded untrained net against perfbench/reference.json);
a failed check makes the command exit 1.

End-to-end timings are read on a host-normalised clock. A shared host's
speed can drift by 1.5x over seconds and minutes, and wall time follows it.
So every half second, between timed intervals, the benchmark times a fixed
numpy kernel (`HostClock`). Each interval is scaled by CAL_REF_MS over the
median kernel time of the calibrations within a second of it, and reads as
the time on a host where that kernel takes CAL_REF_MS. The report also
prints the wall-clock medians and the kernel's median time. Per-layer times
are wall-clock.

With `--trace 1`, round 0 runs untraced and the later rounds run with the
spans of perfbench/spans.py installed; the last line then carries the
per-layer metrics and the tracing overhead. The last line of stdout is the
JSON result; a human-readable report and the environment precede it, and
perfbench/_runs/ keeps results.jsonl and the span dumps.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(BENCH, "_runs")

PREDICT_SHARE = 0.4  # shares of --seconds spent on predict and eval requests
EVAL_SHARE = 0.2
EVAL_SCENES = 4  # few, so a run has many eval calls to take the median of
TRAIN_SCENES = 1  # one scene, batch 1: one step per epoch, so each epoch is a step sample
REFERENCE_SCENES = 2
REFERENCE_TOL = 2e-6  # eval prints 6 decimals; allows one unit of rounding
CAL_PERIOD = 0.5  # seconds between host-speed calibrations
CAL_WINDOW = 1.0  # an interval is scaled by the calibrations this close to it
CAL_REF_MS = 1.0  # kernel time on the reference host


@dataclass(frozen=True)
class Workload:
    size: int
    rounds: int  # sessions per run: each gives one set-up sample
    epochs: int  # stage-1 epochs per round, fixed so the loss sequence is comparable
    arch: dict


# Epochs are enough for the loss to fall on every seed tried; rounds x epochs
# gives at least 100 step samples, so ten lie beyond p90.
WORKLOADS = {
    "default64": Workload(64, 3, 35, {}),
    "small32": Workload(32, 6, 50, {"num_levels": 3, "widths": (4, 6, 8)}),
}


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "fusiondepth", "__init__.py")):
        raise SystemExit(f"perfbench: no fusiondepth sources under {SRC}")
    sys.path.insert(0, SRC)
    import fusiondepth
    from fusiondepth import cli, metrics, netpbm, network, scenes, training  # noqa: F401

    return fusiondepth


def _p90(samples):
    """Nearest-rank 90th percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


class HostClock:
    """Calibrations of the host's speed, and intervals scaled by them.

    The kernel mixes what the program spends its time on: a float64 matmul
    the shape of a conv lowered to im2col, elementwise ops over a feature
    map, and a loop of small-array ops like the autodiff tape's dispatch.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.cols = rng.standard_normal((512, 576))
        self.weights = rng.standard_normal((576, 32))
        self.fmap = rng.standard_normal((16, 64, 64))
        self.small = [rng.standard_normal((1, 4, 8, 8)) for _ in range(50)]
        self.times = []  # start of each calibration
        self.kernel_s = []  # median kernel time of each calibration

    def _kernel(self):
        start = perf_counter()
        self.cols @ self.weights
        self.np.exp(self.fmap * 0.5 + 1.0).sum()
        for m in self.small:
            float((m * 2.0 + 1.0).sum())
        return perf_counter() - start

    def tick(self, force=False):
        """Calibrate, if CAL_PERIOD has passed since the last calibration."""
        now = perf_counter()
        if force or not self.times or now - self.times[-1] >= CAL_PERIOD:
            self.times.append(now)
            self._kernel()  # warms the caches the program has just used
            self.kernel_s.append(statistics.median(self._kernel() for _ in range(3)))

    def scaled(self, start, end):
        """Seconds from `start` to `end` on the host-normalised clock."""
        i = bisect.bisect_right(self.times, start - CAL_WINDOW)
        j = bisect.bisect_left(self.times, end + CAL_WINDOW)
        # the ones within CAL_WINDOW, or else the nearest on either side
        near = self.kernel_s[i:j] or self.kernel_s[i - 1:i] + self.kernel_s[j:j + 1]
        return (end - start) * 1e-3 * CAL_REF_MS / statistics.median(near)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _parse_eval(text, count):
    """Rows of an eval CSV with `count` scenes, or None if it is malformed."""
    from fusiondepth.metrics import CSV_COLUMNS

    lines = text.rstrip("\n").split("\n")
    if len(lines) != count + 2 or lines[0] != CSV_COLUMNS:
        return None
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError:
        return None
    if any(len(r) != 8 or not all(math.isfinite(v) for v in r) for r in rows):
        return None
    return rows


class Session:
    def __init__(self, fd, name, seed, seconds, tracer, work):
        self.fd = fd
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.infer_box = (PREDICT_SHARE + EVAL_SHARE) * seconds / self.wl.rounds
        self.tracer = tracer
        self.tracing = False
        self.work = work
        self.host = HostClock()
        # (start, end) perf_counter intervals; setup_s holds a list of them per round
        self.untraced = {k: [] for k in ("setup_s", "step_ms", "predict_ms", "predict_pp_ms", "eval_s")}
        self.traced = {k: [] for k in self.untraced}
        self.losses = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.infer_rss = None
        # unpatched reader for the output checks, so checks add no spans
        self.read_pgm16 = fd.netpbm.read_pgm16

    def arch(self):
        return self.fd.network.ArchConfig(**self.wl.arch)

    def outcome(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def _root(self, name, fn, *args):
        if self.tracing:
            return self.tracer.call(name, fn, *args)
        return fn(*args)

    def _cli(self, root, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            rc = self._root(root, self.fd.cli.main, argv)
            end = perf_counter()
        return rc, (start, end), out.getvalue(), err.getvalue()

    def _predict(self, ckpt, image, out, pp, bucket):
        argv = ["predict", "--checkpoint", ckpt, "--image", image, "--out", out] + (["--pp"] if pp else [])
        rc, interval, _, err = self._cli("cli.predict_pp" if pp else "cli.predict", argv)
        ok = rc == 0
        if ok:
            disp = self.read_pgm16(out)
            limit = self.arch().d_max * self.wl.size + 0.5 / 256
            ok = (disp.shape == (self.wl.size, self.wl.size) and bool((disp >= 0).all())
                  and bool((disp <= limit).all()))
        self.outcome(ok, f"predict {image} pp={pp}: rc={rc} {err.strip()}")
        if bucket is not None:
            bucket.append(interval)

    def _eval(self, ckpt, data, count):
        rc, interval, out, err = self._cli("cli.eval", ["eval", "--pp", "--checkpoint", ckpt, "--data", data])
        rows = _parse_eval(out, count) if rc == 0 else None
        self.outcome(rows is not None, f"eval {data}: rc={rc} {err.strip()}")
        return rows, interval

    def _write_inputs(self, directory, first_seed, count, net_seed):
        size = self.wl.size
        specs = [self.fd.scenes.random_scene(first_seed + i, width=size, height=size, two_layer=bool(i % 2))
                 for i in range(count)]
        data = os.path.join(directory, "data")
        self.fd.scenes.write_dataset(data, specs)
        ckpt = os.path.join(directory, "seeded.fdpt")
        self.fd.network.save_checkpoint(ckpt, self.fd.network.DepthNet(self.arch(), seed=net_seed))
        return data, ckpt, specs

    def round(self, index, traced):
        fd = self.fd
        self.tracing = traced
        samples = self.traced if traced else self.untraced
        rdir = os.path.join(self.work, f"round{index}")
        pred = os.path.join(rdir, "pred.pgm")

        self.host.tick(force=True)
        start = perf_counter()
        data, ckpt, specs = self._write_inputs(rdir, self.seed, EVAL_SCENES, self.seed)
        train_dir = os.path.join(rdir, "train")
        fd.scenes.write_dataset(train_dir, specs[:TRAIN_SCENES])
        images = [os.path.join(data, f"{i:06}_left.ppm") for i in range(EVAL_SCENES)]
        self._predict(ckpt, images[0], pred, False, None)  # warm-up
        setup = [(start, perf_counter())]

        # eval calls are interleaved with the predict pairs, so both sample the
        # same stretch of wall time and a burst of host load hits them alike
        start = perf_counter()
        deadline = start + self.infer_box
        eval_share = EVAL_SHARE / (PREDICT_SHARE + EVAL_SHARE)
        eval_time, k = 0.0, 0
        while k == 0 or perf_counter() < deadline:
            self.host.tick()
            image = images[k % EVAL_SCENES]
            self._predict(ckpt, image, pred, False, samples["predict_ms"])
            self._predict(ckpt, image, pred, True, samples["predict_pp_ms"])
            k += 1
            if eval_time < eval_share * (perf_counter() - start):
                _, (a, b) = self._eval(ckpt, data, EVAL_SCENES)
                samples["eval_s"].append((a, b))
                eval_time += b - a
        if self.infer_rss is None:
            self.infer_rss = _peak_rss_mb()

        cfg = fd.training.TrainConfig(
            stage_epochs=(self.wl.epochs, 0, 0), seed=self.seed, dataset_dir=train_dir,
            checkpoint_dir=os.path.join(rdir, "checkpoints"), arch=self.arch(),
        )
        ends, starts = [], []  # of each epoch; calibrations fall between them

        def on_log(_msg):
            ends.append(perf_counter())
            self.host.tick()
            starts.append(perf_counter())

        self.host.tick(force=True)
        start = perf_counter()
        _, log_path = self._root("training.run_schedule", fd.training.run_schedule, cfg, on_log)
        self.host.tick(force=True)
        setup.append((start, ends[0]))
        samples["step_ms"].extend(zip(starts, ends[1:]))
        samples["setup_s"].append(setup)
        with open(log_path) as f:
            losses = [float(line.split(",")[2]) for line in f.read().splitlines()[1:]]
        for epoch, loss in enumerate(losses, start=1):
            self.outcome(math.isfinite(loss), f"round {index} epoch {epoch}: loss {loss}")
        self.outcome(len(losses) == self.wl.epochs, f"round {index}: {len(losses)} epochs logged")
        self.losses.append(losses)
        self.tracing = False
        shutil.rmtree(rdir)

    def final_checks(self):
        first = self.losses[0]
        self.outcome(all(run == first for run in self.losses),
                     "per-epoch loss sequences differ between rounds of the same seed")
        self.outcome(first[-1] < first[0], f"loss_ratio {first[-1] / first[0]:.4f} is not below 1")

        directory = os.path.join(self.work, "reference")
        data, ckpt, _ = self._write_inputs(directory, 0, REFERENCE_SCENES, 0)
        rows, _ = self._eval(ckpt, data, REFERENCE_SCENES)
        with open(os.path.join(BENCH, "reference.json")) as f:
            expected = json.load(f)[self.name]
        ok = rows is not None and all(abs(a - b) <= REFERENCE_TOL for a, b in zip(rows[-1], expected))
        self.outcome(ok, f"eval aggregate of the seeded untrained net {rows and rows[-1]} != reference {expected}")
        shutil.rmtree(directory)

    def durations(self, samples, key):
        """Host-normalised durations in seconds, with the wall-clock ones."""
        if key == "setup_s":
            return ([sum(self.host.scaled(a, b) for a, b in parts) for parts in samples[key]],
                    [sum(b - a for a, b in parts) for parts in samples[key]])
        return [self.host.scaled(a, b) for a, b in samples[key]], [b - a for a, b in samples[key]]

    def end_to_end(self):
        s = {key: self.durations(self.untraced, key) for key in self.untraced}
        evals = [EVAL_SCENES / t for t in s["eval_s"][0]]
        out = {
            "setup_s": (statistics.median(s["setup_s"][0]), "s", len(s["setup_s"][0])),
            "peak_rss_mb": (_peak_rss_mb(), "MiB", 1),
            "infer_peak_rss_mb": (self.infer_rss, "MiB", 1),
            "error_rate": (self.failed / self.attempted, "ratio", self.attempted),
            "loss_ratio": (self.losses[0][-1] / self.losses[0][0], "ratio", len(self.losses[0])),
            "eval_scenes_per_s": (statistics.median(evals), "scenes/s", len(evals)),
        }
        for key in ("step_ms", "predict_ms", "predict_pp_ms"):
            base = key[:-3]
            ms = [1e3 * t for t in s[key][0]]
            out[f"{base}_ms_p50"] = (statistics.median(ms), "ms", len(ms))
            p90, beyond = _p90(ms)
            out[f"{base}_ms_p90"] = (p90, "ms", len(ms), f"{beyond} beyond")
            out[f"{base}_ms_min"] = (min(ms), "ms", len(ms))
        # wall-clock figures and the host's speed, for reading the normalised ones
        out["wall.setup_s"] = (statistics.median(s["setup_s"][1]), "s", len(s["setup_s"][1]))
        for key in ("step_ms", "predict_ms", "predict_pp_ms"):
            out[f"wall.{key}_p50"] = (1e3 * statistics.median(s[key][1]), "ms", len(s[key][1]))
        out["wall.eval_scenes_per_s"] = (statistics.median(EVAL_SCENES / t for t in s["eval_s"][1]), "scenes/s",
                                         len(s["eval_s"][1]))
        out["host.kernel_ms"] = (1e3 * statistics.median(self.host.kernel_s), "ms", len(self.host.kernel_s))
        return out

    def per_layer(self):
        from spans import Analysis

        a = Analysis(self.tracer.spans)
        out = {}

        def put(name, value, unit, n):
            out[name] = (value, unit, n)

        steps = len(a.steps)
        for metric, span in (("autodiff.conv2d_fwd_ms", "autodiff.conv2d"),
                             ("autodiff.conv2d_bwd_ms", "autodiff.conv2d.vjp"),
                             ("autodiff.grid_sample_fwd_ms", "autodiff.grid_sample"),
                             ("autodiff.grid_sample_bwd_ms", "autodiff.grid_sample.vjp")):
            put(metric, a.per_step_ms(span), "ms/step", steps)
        for metric, span, self_time in (("autodiff.backward_ms", "autodiff.backward", False),
                                        ("autodiff.backward_self_ms", "autodiff.backward", True),
                                        ("losses.total_loss_ms", "losses.total_loss", False),
                                        ("losses.total_loss_self_ms", "losses.total_loss", True),
                                        ("training.adam_step_ms", "training.adam_step", False),
                                        ("network.forward_ms", "network.forward", False),
                                        ("network.forward_self_ms", "network.forward", True),
                                        ("network.load_checkpoint_ms", "network.load_checkpoint", False),
                                        ("network.read_checkpoint_ms", "network.read_checkpoint", False),
                                        ("network.save_checkpoint_ms", "network.save_checkpoint", False),
                                        ("metrics.postprocess_ms", "metrics.postprocess", False),
                                        ("netpbm.read_ppm_ms", "netpbm.read_ppm", False),
                                        ("netpbm.write_ppm_ms", "netpbm.write_ppm", False),
                                        ("netpbm.read_pgm16_ms", "netpbm.read_pgm16", False),
                                        ("netpbm.write_pgm16_ms", "netpbm.write_pgm16", False),
                                        ("scenes.render_stereo_ms", "scenes.render_stereo", False),
                                        ("cli.predict_ms", "cli.predict", False),
                                        ("cli.predict_self_ms", "cli.predict", True),
                                        ("cli.predict_pp_ms", "cli.predict_pp", False),
                                        ("cli.eval_ms", "cli.eval", False),
                                        ("cli.eval_self_ms", "cli.eval", True)):
            put(metric, a.per_call_ms(span, self_time=self_time), "ms", len(a.calls(span)))
        put("metrics.compute_metrics_ms",
            a.per_call_ms("metrics.compute_metrics") + a.per_call_ms("metrics.compute_d1"), "ms",
            len(a.calls("metrics.compute_metrics")))
        for metric, span, child in (("scenes.load_dataset_ms", "scenes.load_dataset", "netpbm.read_pgm16"),
                                    ("scenes.write_dataset_ms", "scenes.write_dataset", "netpbm.write_pgm16")):
            calls = set(a.calls(span))
            count = sum(1 for i in a.calls(child) if a.spans[i][3] in calls)
            put(metric, 1e3 * sum(a.dur[i] for i in calls) / max(count, 1), "ms/scene", count)

        # exact counts, from shapes and graph walks; they must repeat bit for bit
        rows = a.step_counts()
        forward_nodes = a.attr_values("network.forward", "tape_nodes")
        checkpoint_mb = a.attr_values("network.load_checkpoint", "checkpoint_mb")
        self.outcome(len(set(rows)) == 1 and len(set(forward_nodes)) == 1 and len(set(checkpoint_mb)) == 1,
                     f"exact counts differ between steps or requests: {sorted(set(rows))[:3]}, "
                     f"forward tape nodes {sorted(set(forward_nodes))}, checkpoint MiB {sorted(set(checkpoint_mb))}")
        convs, grids, gflop, im2col, nodes, spans_per_step = rows[0]
        put("autodiff.conv2d_calls", convs, "count/step", steps)
        put("autodiff.grid_sample_calls", grids, "count/step", steps)
        put("autodiff.conv2d_gflop", gflop, "GFLOP/step", steps)
        put("autodiff.im2col_mb", im2col, "MiB/step", steps)
        put("autodiff.tape_nodes", nodes, "count/step", steps)
        put("autodiff.forward_tape_nodes", forward_nodes[0], "count", len(forward_nodes))
        put("network.checkpoint_mb", checkpoint_mb[0], "MiB", len(checkpoint_mb))
        put("trace.spans_per_step", spans_per_step, "count/step", steps)

        traced = self.durations(self.traced, "step_ms")[0]
        untraced = self.durations(self.untraced, "step_ms")[0]
        put("trace.step_ms_p50", 1e3 * statistics.median(traced), "ms", len(traced))
        put("trace.overhead_ratio", statistics.median(traced) / statistics.median(untraced), "ratio", len(untraced))

        table = []
        for layer in sorted(n for n in a.by_name if n.startswith("network.conv.") and not n.endswith(".vjp")):
            fwd, bwd = a.per_call_ms(layer), a.per_call_ms(layer + ".vjp")
            put(layer + ".fwd_ms", fwd, "ms", len(a.calls(layer)))
            put(layer + ".bwd_ms", bwd, "ms", len(a.calls(layer + ".vjp")))
            table.append((fwd + bwd, layer[len("network.conv."):], fwd, bwd))
        return out, sorted(table, reverse=True)


def _environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    files = sorted(glob.glob(os.path.join(SRC, "fusiondepth", "*.py")))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        with open(path, "rb") as f:
            blob = f.read()
        digest.update(os.path.basename(path).encode() + b"\0" + blob)
        lines += blob.count(b"\n")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }


def _contract_metrics(section, measured):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)[section]
    result = {}
    for metric in contract:
        value, unit = measured[metric["name"]][:2]
        if unit != metric["unit"]:
            raise SystemExit(f"perfbench: {metric['name']} measured in {unit}, BENCHMARK.json says {metric['unit']}")
        result[metric["name"]] = {"value": value, "unit": unit}
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    fd = _import_program()
    env = _environment()
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    os.makedirs(RUNS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS) as work:
        session = Session(fd, args.workload, args.seed, args.seconds, tracer, work)
        for index in range(session.wl.rounds):
            traced = tracer is not None and index > 0
            if traced:
                tracer.install(fd)
            try:
                session.round(index, traced)
            finally:
                if traced:
                    tracer.uninstall()
        e2e = session.end_to_end()
        layers, table = session.per_layer() if tracer else ({}, [])
        session.final_checks()
    e2e["error_rate"] = (session.failed / session.attempted, "ratio", session.attempted)
    correct = session.failed == 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {tag} seconds={args.seconds:g} rounds={session.wl.rounds}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for title, metrics in (("end-to-end" + (" (round 0, untraced)" if tracer else ""), e2e),
                           ("per-layer (traced rounds)", layers)):
        if metrics:
            print(title)
        for name, (value, unit, n, *note) in metrics.items():
            print(f"  {name:44s} {value:12.4f} {unit:10s} n={n} {' '.join(note)}")
    if table:
        print("per-Conv table (ms per call, traced)")
        for _, name, fwd, bwd in table:
            print(f"  {name:28s} fwd {fwd:8.3f}  bwd {bwd:8.3f}")
    print("checks: " + ("all passed" if correct else "FAILED"))
    for problem in session.problems:
        print(f"  FAILED {problem}")

    record = {"run": tag, "seconds": args.seconds, "env": env, "correct": correct,
              "attempted": session.attempted, "failed": session.failed, "problems": session.problems,
              "end_to_end": {k: v[:3] for k, v in e2e.items()},
              "per_layer": {k: v[:3] for k, v in layers.items()},
              "samples": {k: session.durations(session.untraced, k) for k in session.untraced}}
    with open(os.path.join(RUNS, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    if tracer:
        tracer.dump(os.path.join(RUNS, f"spans-{tag}.json"))

    metrics = _contract_metrics("per_layer" if tracer else "end_to_end", {**e2e, **layers})
    print(json.dumps({"correct": correct, "attempted": session.attempted, "failed": session.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
