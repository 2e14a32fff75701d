"""Optimizer arithmetic, staged schedule behavior, config parsing, CLI wiring."""

import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fusiondepth import autodiff as ad
from fusiondepth import cli, netpbm
from fusiondepth import training as tr
from fusiondepth.network import (ArchConfig, DepthNet, format_config_lines, image_batch, load_checkpoint,
                                save_checkpoint)
from fusiondepth.scenes import SceneError, random_scene, render_stereo, write_dataset
from test_losses import per_eye_loss


def leaf(value):
    return ad.Tensor(np.array(value, dtype=np.float64).reshape(1, 1, 1, 1), requires_grad=True)


class TestAdam:
    def test_first_step_magnitude(self):
        # bias correction makes the first update lr-sized regardless of gradient scale
        lr = tr.LEARNING_RATE
        for g in (1.0, 1e-3):
            p = leaf(1.0)
            tr.Adam([p]).step({p: np.full(p.shape, g)})
            assert p.values[0, 0, 0, 0] == pytest.approx(1.0 - lr, abs=1e-3 * lr)

    def test_step_counter_counts_steps_without_gradients(self):
        p = leaf(1.0)
        opt = tr.Adam([p])
        opt.step({p: np.ones(p.shape)})
        opt.step({})
        assert opt.step_count == 2

    def test_missing_gradient_keeps_momentum(self):
        p = leaf(1.0)
        opt = tr.Adam([p])
        opt.step({p: np.ones(p.shape)})
        after_first = p.values.copy()
        opt.step({})
        assert p.values[0, 0, 0, 0] < after_first[0, 0, 0, 0]  # momentum keeps moving
        assert np.isfinite(p.values).all()

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            p = leaf(0.5)
            opt = tr.Adam([p])
            for k in range(5):
                opt.step({p: np.full(p.shape, 0.3 * (k + 1))})
            runs.append(p.values.copy())
        assert np.array_equal(runs[0], runs[1])


    def test_runs_match_the_whole_array_update_bit_for_bit(self):
        rng = np.random.default_rng(7)
        size = 2 * tr.ADAM_RUN + 7  # two full runs and a ragged tail
        p = ad.Tensor(rng.normal(size=(1, 1, 1, size)), requires_grad=True)
        ref, m, v = p.values.copy(), np.zeros(p.shape), np.zeros(p.shape)
        opt = tr.Adam([p])
        grads = [rng.normal(size=p.shape), None, rng.normal(size=(1, 1, 1, 2 * size))[..., ::2]]
        assert not grads[2].flags.c_contiguous
        for k, g in enumerate(grads, start=1):
            opt.step({} if g is None else {p: g})
            m *= tr.ADAM_BETA1
            v *= tr.ADAM_BETA2
            if g is not None:
                m += (1.0 - tr.ADAM_BETA1) * g
                v += (1.0 - tr.ADAM_BETA2) * g * g
            bc1, bc2 = 1.0 - tr.ADAM_BETA1 ** k, 1.0 - tr.ADAM_BETA2 ** k
            ref -= tr.LEARNING_RATE * (m / bc1) / (np.sqrt(v / bc2) + tr.ADAM_EPS)
            assert np.array_equal(p.values, ref)

    def test_rejects_a_leaf_that_is_not_c_contiguous(self):
        p = ad.Tensor(np.zeros((1, 2, 3, 4)).transpose(0, 1, 3, 2), requires_grad=True)
        with pytest.raises(ValueError, match="not C-contiguous"):
            tr.Adam([p])


class TestStagePlan:
    def test_three_stages(self):
        cfg = tr.TrainConfig(stage_epochs=(25, 5, 5))
        plan = tr.stage_plan(cfg)
        assert [epochs for epochs, _ in plan] == [25, 5, 5]
        full = tr.LossWeights()
        f = full.scale_factors
        assert plan[0][1] == full
        assert plan[1][1].scale_factors == f[:2] + (0.0, 0.0)
        assert plan[2][1].scale_factors == f[:2] + (0.0, 0.0)
        assert plan[1][1].smoothness == full.smoothness and plan[1][1].occlusion == full.occlusion

    def test_final_stage_drops_regularizers(self):
        cfg = tr.TrainConfig(stage_epochs=(1, 1, 1))
        _, weights = tr.stage_plan(cfg)[2]
        assert weights.smoothness == 0.0 and weights.occlusion == 0.0


def readme_config_block():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("## Configuration", 1)[1].split("```\n")[1]


class TestParseConfig:
    def test_readme_block_matches_defaults(self, tmp_path):
        (tmp_path / "readme.cfg").write_text(readme_config_block())
        assert tr.parse_config(tmp_path / "readme.cfg") == tr.TrainConfig()

    def test_empty_file_gives_the_defaults(self, tmp_path):
        (tmp_path / "empty.cfg").write_text("")
        assert tr.parse_config(tmp_path / "empty.cfg") == tr.TrainConfig()

    def test_full_override(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "arch.num_levels = 3\n"
            "arch.widths = 4, 6, 8\n"
            "arch.coordconv = false\n"
            "arch.fusion = no\n"
            "arch.refinement = off\n"
            "train.stage_epochs = 2, 1, 1\n"
            "train.seed = 7\n"
            "train.checkpoint_dir = out\n"
            "train.dataset_dir = somewhere\n"
        )
        cfg = tr.parse_config(path)
        assert cfg.arch.num_levels == 3
        assert cfg.arch.widths == (4, 6, 8)
        assert not cfg.arch.coordconv and not cfg.arch.fusion and not cfg.arch.refinement
        assert cfg.stage_epochs == (2, 1, 1)
        assert cfg.seed == 7
        assert cfg.checkpoint_dir == "out"
        assert cfg.dataset_dir == "somewhere"

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# top\n\ntrain.seed = 3\n  # indented comment\n")
        assert tr.parse_config(path).seed == 3

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("train.checkpoint_dir = runs#1  # trailing comment\ntrain.dataset_dir = a#b\t# after a tab\n")
        cfg = tr.parse_config(path)
        assert cfg.checkpoint_dir == "runs#1" and cfg.dataset_dir == "a#b"
        path.write_text(format_config_lines(tr.ARCH_KEYS, cfg.arch)
                        + format_config_lines(tr.config_keys("train", tr.TrainConfig), cfg))
        assert tr.parse_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("train.momentum = 0.9\n")
        with pytest.raises(tr.ConfigError):
            tr.parse_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("train.seed 1\n")
        with pytest.raises(tr.ConfigError):
            tr.parse_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("train.seed = many\n")
        with pytest.raises(tr.ConfigError):
            tr.parse_config(path)

    @pytest.mark.parametrize("text", ["arch.num_levels = 3\narch.widths = 4, , 6, 8\n",
                                      "arch.num_levels = 3\narch.widths = 4, 6, 8,\n",
                                      "train.seed = 1\ntrain.stage_epochs = 2,,1, 1\n"])
    def test_empty_tuple_entry_names_file_line_and_key(self, tmp_path, text):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        key = text.splitlines()[1].split(" = ")[0]
        with pytest.raises(tr.ConfigError, match=re.escape(f"{path}:2: bad value for {key}: ")):
            tr.parse_config(path)

    @pytest.mark.parametrize("line", ["arch.kernel = 3", "arch.reservation = 0.5", "loss.alpha_ssim = 0.85",
                                      "train.beta1 = 0.9", "train.eps = 1e-08", "arch.levels = 5", "data.dir = data",
                                      "arch.d_max = 0.3", "loss.smoothness = 0.1", "loss.lr_consistency = 1.0",
                                      "loss.occlusion = 0.01", "loss.scale_factors = 1.0, 0.5, 0.25, 0.125",
                                      "train.lr = 0.0001", "train.batch_size = 1"])
    def test_removed_or_renamed_key_names_file_line_and_key(self, tmp_path, line):
        path = tmp_path / "cfg.txt"
        path.write_text(f"train.seed = 1\n{line}\n")
        key = line.split(" = ")[0]
        with pytest.raises(tr.ConfigError, match=re.escape(f"{path}:2: unknown key {key!r}")):
            tr.parse_config(path)

    def test_non_utf8_file_names_file_and_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"train.seed = 1\ntrain.checkpoint_dir = caf\xe9\n")
        with pytest.raises(tr.ConfigError, match=re.escape(f"{path}:2: ") + ".*can't decode byte 0xe9"):
            tr.parse_config(path)

    def test_keys_are_section_dot_field(self):
        expected = {f"{section}.{f.name}" for section, cls in (("arch", ArchConfig), ("train", tr.TrainConfig))
                    for f in fields(cls) if f.name != "arch"}
        assert set(tr.CONFIG_KEYS) == expected == {
            "arch.num_levels", "arch.widths", "arch.coordconv", "arch.fusion", "arch.refinement",
            "train.stage_epochs", "train.seed", "train.dataset_dir", "train.checkpoint_dir"}
        assert all(tr.CONFIG_KEYS[key][1] == key.split(".", 1)[1] for key in tr.CONFIG_KEYS)
        assert tr.ARCH_KEYS == {key: row for key, row in tr.CONFIG_KEYS.items() if key.startswith("arch.")}
        keys = [line.split(" = ")[0] for line in readme_config_block().splitlines()]
        assert keys == list(tr.CONFIG_KEYS)

    @pytest.mark.parametrize("line, match", [
        ("arch.num_levels = 2", "need at least 3 levels"),
        ("train.seed = -1", "seed must be >= 0"),
        ("train.stage_epochs = 1, 1", "stage_epochs must be 3 non-negative integers"),
    ])
    def test_range_error_names_file(self, tmp_path, line, match):
        path = tmp_path / "cfg.txt"
        path.write_text(line + "\n")
        with pytest.raises(tr.ConfigError, match=match) as info:
            tr.parse_config(path)
        key = line.split(" = ")[0]
        assert str(info.value).startswith(f"{path}:1: {key}: ")

    @pytest.mark.parametrize("text, message", [
        ("train.seed = 1\narch.num_levels = 2\n", "2: arch.num_levels: need at least 3 levels, got 2"),
        ("train.seed = 1\n\ntrain.stage_epochs = 1, 1\n",
         "3: train.stage_epochs: stage_epochs must be 3 non-negative integers, got (1, 1)"),
        # the widths check reads both fields; it names the one the file sets
        ("train.seed = 1\narch.num_levels = 3\n", "2: arch.num_levels: widths has 5 entries for 3 levels"),
        ("arch.widths = 4, 6, 8\ntrain.seed = 1\n", "1: arch.widths: widths has 3 entries for 5 levels"),
        ("arch.widths = 4, 6\narch.num_levels = 3\n", "1: arch.widths: widths has 2 entries for 3 levels"),
        ("arch.num_levels = 3\narch.widths = 4, 0, 8\n", "2: arch.widths: channel widths must be positive"),
    ], ids=["num_levels", "stage_epochs", "default_widths", "default_num_levels", "both_set", "zero_width"])
    def test_range_error_names_line_and_key(self, tmp_path, text, message):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        with pytest.raises(tr.ConfigError) as info:
            tr.parse_config(path)
        assert str(info.value).startswith(f"{path}:{message}")


class TestBatch:
    def test_stacked_batch_is_mean_of_samples(self):
        samples = [render_stereo(random_scene(seed, width=32, height=32)) for seed in range(2)]
        net = tr.DepthNet(tiny_arch(), seed=3)
        leaves = [t for _, t in net.parameters()]

        def loss_and_grad(chunk):
            # B lefts then B rights
            images = image_batch(np.stack([s.left for s in chunk] + [s.right for s in chunk]))
            loss = tr.total_loss(net.forward(images), images, tr.LossWeights())
            grads = ad.backward(loss)
            return loss.item(), np.concatenate([grads[t].ravel() for t in leaves])

        loss, grad = loss_and_grad(samples)
        (loss_0, grad_0), (loss_1, grad_1) = (loss_and_grad([s]) for s in samples)
        assert loss == pytest.approx((loss_0 + loss_1) / 2, rel=1e-12)
        mean_grad = (grad_0 + grad_1) / 2
        assert np.linalg.norm(grad - mean_grad) <= 1e-12 * np.linalg.norm(mean_grad)


class TestPairStep:
    """A training step runs the network once, on the (2, 3, H, W) stack of both eyes."""

    def test_each_step_runs_one_forward_on_the_pair(self):
        samples = [render_stereo(random_scene(seed, width=32, height=32)) for seed in range(2)]
        net = DepthNet(tiny_arch(), seed=0)
        shapes = []

        def forward(images):
            shapes.append(images.shape)
            return DepthNet.forward(net, images)

        net.forward = forward
        opt = tr.Adam([t for _, t in net.parameters()])
        tr._train_epoch(net, opt, samples, np.random.default_rng(0), tr.LossWeights())
        assert shapes == [(2, 3, 32, 32)] * 2

    @pytest.mark.parametrize("stage, warps", [(1, 8), (2, 4), (3, 4)])
    def test_loss_tape_warps_each_built_scale_twice(self, stage, warps):
        # one warp of the images and one of the disparities per built scale, over the pair
        scene = render_stereo(random_scene(0, width=32, height=32))
        net = DepthNet(tiny_arch(), seed=0)
        outputs = []

        def forward(images):
            outputs.append(DepthNet.forward(net, images))
            return outputs[-1]

        net.forward = forward
        loss = tr._pair_loss(net, scene, tr.stage_plan(tr.TrainConfig())[stage - 1][1])
        ops = tape_ops([loss])
        assert ops.count("grid_sample") == warps and "batch_item" not in ops
        # the forward tape of the (4, 6, 8) arch, which the loss leaves as it is
        assert len(tape_ops(outputs[0].maps)) == 188

    @pytest.mark.parametrize("arch", [{}, {"coordconv": False}, {"fusion": False}, {"refinement": False}],
                             ids=["default", "no_coordconv", "no_fusion", "no_refinement"])
    def test_pair_matches_two_single_forwards(self, arch):
        scene = render_stereo(random_scene(4, width=64, height=64, two_layer=True))
        net = DepthNet(ArchConfig(**arch), seed=1)
        leaves = [t for _, t in net.parameters()]
        left, right = image_batch(scene.left[None]), image_batch(scene.right[None])
        pair = net.forward(image_batch(np.stack([scene.left, scene.right])))
        singles = [net.forward(left), net.forward(right)]
        for s in range(4):
            assert np.array_equal(pair.maps[s].values, np.concatenate([d.maps[s].values for d in singles]))
        loss = tr._pair_loss(net, scene, tr.LossWeights())
        want = per_eye_loss(*singles, left, right, tr.LossWeights())
        assert loss.item() == pytest.approx(want.item(), rel=1e-12)
        grads, want_grads = ad.backward(loss), ad.backward(want)
        for t in leaves:
            assert np.linalg.norm(grads[t] - want_grads[t]) <= 1e-12 * np.linalg.norm(want_grads[t])


class TestStepMemory:
    def test_each_phase_frees_what_it_is_done_with(self):
        # one default-arch 64x64 step as _train_epoch runs it; traced bytes count from the step's start
        scene = render_stereo(random_scene(3, width=64, height=64))
        net = DepthNet(ArchConfig(), seed=0)
        net.forward(image_batch(np.stack([scene.left, scene.right])))  # fills the coordinate-channel cache
        opt = tr.Adam([t for _, t in net.parameters()])
        param_bytes = sum(t.values.nbytes for t in opt.tensors)
        mib = 2 ** 20
        tracemalloc.start()
        try:
            loss = tr._pair_loss(net, scene, tr.LossWeights())
            tracemalloc.reset_peak()
            grads = ad.backward(loss)
            after_backward, backward_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            opt.step(grads)
            _, adam_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert backward_peak <= 36 * mib  # the tape is freed as backward runs
        assert after_backward <= 1.05 * param_bytes  # only the leaf gradients remain
        assert adam_peak - after_backward <= 1 * mib  # no whole-tensor temporaries


def tape_ops(roots):
    """The op name of each distinct tensor reachable from `roots`."""
    seen, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node._op
            stack.extend(node._parents)
    return list(seen.values())


def tiny_arch():
    return ArchConfig(num_levels=3, widths=(4, 6, 8))


def tiny_config(root):
    data_dir = os.path.join(root, "data")
    if not os.path.isdir(data_dir):
        write_dataset(data_dir, [random_scene(s, width=32, height=32) for s in range(2)])
    return tr.TrainConfig(
        stage_epochs=(1, 1, 1),
        dataset_dir=data_dir,
        checkpoint_dir=os.path.join(root, "ckpt"),
        arch=tiny_arch(),
    )


class TestRunSchedule:
    def test_logs_and_checkpoints(self, tmp_path):
        cfg = tiny_config(str(tmp_path))
        net, log_path = tr.run_schedule(cfg)
        lines = open(log_path).read().splitlines()
        assert lines[0] == "epoch,stage,mean_loss"
        assert len(lines) == 4
        stages = [line.split(",")[1] for line in lines[1:]]
        assert stages == ["1", "2", "3"]
        for line in lines[1:]:
            loss = float(line.split(",")[2])
            assert np.isfinite(loss) and loss > 0
        for name in ("stage1.fdpt", "stage2.fdpt", "stage3.fdpt", "final.fdpt"):
            assert os.path.exists(os.path.join(cfg.checkpoint_dir, name))
        for _, p in net.parameters():
            assert np.isfinite(p.values).all()

    def test_deterministic_repeat(self, tmp_path):
        cfg_a = tiny_config(str(tmp_path))
        cfg_b = tiny_config(str(tmp_path))
        cfg_b.checkpoint_dir = str(tmp_path / "ckpt_b")
        _, log_a = tr.run_schedule(cfg_a)
        _, log_b = tr.run_schedule(cfg_b)
        assert open(log_a, "rb").read() == open(log_b, "rb").read()
        final_a = open(os.path.join(cfg_a.checkpoint_dir, "final.fdpt"), "rb").read()
        final_b = open(os.path.join(cfg_b.checkpoint_dir, "final.fdpt"), "rb").read()
        assert final_a == final_b

    def test_missing_dataset(self, tmp_path):
        cfg = tr.TrainConfig(dataset_dir=str(tmp_path / "nowhere"), arch=tiny_arch())
        with pytest.raises(FileNotFoundError):
            tr.run_schedule(cfg)

    def test_empty_dataset(self, tmp_path):
        data_dir = str(tmp_path / "data")
        write_dataset(data_dir, [])
        cfg = tr.TrainConfig(dataset_dir=data_dir, arch=tiny_arch())
        with pytest.raises(SceneError, match="lists no scenes"):
            tr.run_schedule(cfg)

    @pytest.mark.parametrize("height", [8, 16])
    def test_extents_below_the_loss_window_rejected_before_training(self, tmp_path, height):
        # these pass the (4, 6, 8) net's 2^3 check, but the loss's 3x3 SSIM window needs 3 px at 1/8 scale
        data_dir = str(tmp_path / "data")
        write_dataset(data_dir, [random_scene(s, width=32, height=height) for s in range(2)])
        cfg = tr.TrainConfig(stage_epochs=(1, 0, 0), dataset_dir=data_dir,
                             checkpoint_dir=str(tmp_path / "ckpt"), arch=tiny_arch())
        expected = f"dataset at {data_dir}: input extents {height}x32 must be at least 24, for the loss's 3x3 SSIM"
        with pytest.raises(tr.ConfigError, match=re.escape(expected)):
            tr.run_schedule(cfg)
        assert not (tmp_path / "ckpt" / "train_log.csv").exists()


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# On one core, OpenBLAS runs one thread whatever the environment says, so the
# two runs could not differ and the test would show nothing.
@pytest.mark.skipif(os.cpu_count() == 1, reason="a one-core host runs one BLAS thread either way")
def test_train_bits_do_not_depend_on_the_blas_thread_variables(tmp_path):
    # the default arch: the (4, 6, 8) net's GEMMs are too small for OpenBLAS to split
    write_dataset(str(tmp_path / "data"), [random_scene(s, width=32, height=32) for s in range(3)])
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    finals = []
    for name, extra in (("unset", {}), ("one", dict.fromkeys(THREAD_VARS, "1"))):
        (tmp_path / f"{name}.cfg").write_text(
            "train.stage_epochs = 2, 1, 1\n"
            f"train.checkpoint_dir = {tmp_path / name}\n"
            f"train.dataset_dir = {tmp_path / 'data'}\n")
        subprocess.run([sys.executable, "-m", "fusiondepth.cli", "train", "--config", str(tmp_path / f"{name}.cfg")],
                       env={**env, **extra}, check=True, capture_output=True)
        finals.append((tmp_path / name / "final.fdpt").read_bytes())
    assert finals[0] == finals[1]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny end-to-end CLI run shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    assert cli.main(["gen-data", "--out", str(data_dir), "--count", "3",
                     "--seed", "1", "--width", "32", "--height", "32"]) == 0
    cfg_path = root / "train.cfg"
    cfg_path.write_text(
        "arch.num_levels = 3\n"
        "arch.widths = 4, 6, 8\n"
        "train.stage_epochs = 1, 1, 1\n"
        f"train.checkpoint_dir = {root / 'ckpt'}\n"
        f"train.dataset_dir = {data_dir}\n"
    )
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    return root


class TestCli:
    def test_gen_data_writes_files(self, tmp_path):
        out = tmp_path / "d"
        assert cli.main(["gen-data", "--out", str(out), "--count", "2", "--seed", "0"]) == 0
        names = sorted(os.listdir(out))
        assert "manifest.txt" in names
        assert len([n for n in names if n.endswith(".ppm")]) == 4
        assert len([n for n in names if n.endswith(".pgm")]) == 2

    @pytest.mark.parametrize("count", [0, -2])
    def test_gen_data_count_below_one_rejected(self, tmp_path, capsys, count):
        out = tmp_path / "d"
        assert cli.main(["gen-data", "--out", str(out), "--count", str(count)]) == 1
        assert capsys.readouterr().err == f"error: --count must be at least 1, got {count}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--height", "7"], "--height must be a multiple of 8 and at least 32, got 7"),
        (["--width", "24", "--height", "24"], "--width must be a multiple of 8 and at least 32, got 24"),
        (["--width", "0"], "--width must be a multiple of 8 and at least 32, got 0"),
        (["--width", "8", "--height", "8"], "--width must be a multiple of 8 and at least 32, got 8"),
        (["--height", "40", "--width", "36"], "--width must be a multiple of 8 and at least 32, got 36"),
        (["--seed", "-1"], "--seed must be at least 0, got -1"),
    ], ids=["height_7", "24x24", "width_0", "8x8", "width_36", "seed_-1"])
    def test_gen_data_bad_extents_or_seed_rejected_before_writing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "d"
        assert cli.main(["gen-data", "--out", str(out), "--count", "2", *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_gen_data_deterministic(self, tmp_path):
        for name in ("a", "b"):
            assert cli.main(["gen-data", "--out", str(tmp_path / name), "--count", "1",
                             "--seed", "5"]) == 0
        left_a = (tmp_path / "a" / "000000_left.ppm").read_bytes()
        left_b = (tmp_path / "b" / "000000_left.ppm").read_bytes()
        assert left_a == left_b

    def test_unknown_command_exits_2(self, capsys):
        assert cli.main(["refine"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_exits_2(self, capsys):
        assert cli.main(["gen-data", "--count", "2"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("line", ["loss.scale_factors = 1.0, 0.5", "loss.alpha_ssim = 1.5",
                                      "loss.smoothness = -1", "train.lr = nan", "train.lr = inf",
                                      "train.beta1 = 1.0", "train.beta2 = -0.1", "train.eps = 0",
                                      "arch.d_max = nan", "train.seed = -1"])
    def test_invalid_loss_weights_exit_1_before_training(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(f"{line}\ntrain.checkpoint_dir = {tmp_path / 'ckpt'}\ntrain.dataset_dir = {tmp_path / 'data'}\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 1
        out, err = capsys.readouterr()
        key = line.split(" = ")[0]
        # every setting here but the seed is a constant now: its old key fails as unknown at line 1
        reason = "train.seed: seed must be >= 0" if key == "train.seed" else f"unknown key {key!r}"
        assert err.startswith(f"error: {cfg_path}:1: {reason}") and "epoch" not in out
        assert not (tmp_path / "ckpt").exists()

    def test_indivisible_extents_exit_1_before_training(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        write_dataset(data_dir, [random_scene(0, width=48, height=48)])
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(f"train.checkpoint_dir = {tmp_path / 'ckpt'}\ntrain.dataset_dir = {data_dir}\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: dataset at {data_dir}: input extents 48x48 must be divisible by 2^5")
        assert not (tmp_path / "ckpt").exists()

    def test_empty_dataset_exit_1_for_train_and_eval(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        write_dataset(data_dir, [])
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(f"train.checkpoint_dir = {tmp_path / 'ckpt'}\ntrain.dataset_dir = {data_dir}\n")
        checkpoint = tmp_path / "net.fdpt"
        save_checkpoint(checkpoint, DepthNet(tiny_arch()))
        capsys.readouterr()
        expected = f"error: {data_dir / 'manifest.txt'} lists no scenes\n"
        assert cli.main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "ckpt").exists()
        assert cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(data_dir)]) == 1
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_indivisible_extents_error_names_input(self, tmp_path, capsys, command):
        data_dir = tmp_path / "data"
        write_dataset(data_dir, [random_scene(0, width=48, height=48)])
        checkpoint = tmp_path / "net.fdpt"
        save_checkpoint(checkpoint, DepthNet(ArchConfig()))
        image = data_dir / "000000_left.ppm"
        out = tmp_path / "disp.pgm"
        if command == "eval":
            argv, where = ["eval", "--data", str(data_dir)], f"dataset at {data_dir}"
        else:
            argv, where = ["predict", "--image", str(image), "--out", str(out)], str(image)
        assert cli.main(argv + ["--checkpoint", str(checkpoint)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {where}: input extents 48x48 must be divisible by 2^5")
        assert not out.exists()

    @pytest.mark.parametrize("name, write, extents, reason", [
        ("disp.pgm", netpbm.write_pgm16, (32, 64), r"disparity map is \(32, 64\), images are \(32, 32\)"),
        ("right.ppm", netpbm.write_ppm, (32, 64, 3), r"stereo images differ: \(32, 32, 3\) vs \(32, 64, 3\)"),
    ])
    def test_eval_names_scene_with_wrong_extents(self, tmp_path, capsys, name, write, extents, reason):
        data_dir = tmp_path / "data"
        write_dataset(data_dir, [random_scene(i, width=32, height=32) for i in range(2)])
        write(data_dir / f"000001_{name}", np.full(extents, 0.5))
        checkpoint = tmp_path / "net.fdpt"
        save_checkpoint(checkpoint, DepthNet(tiny_arch()))
        assert cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(data_dir)]) == 1
        assert re.fullmatch(f"error: {re.escape(str(data_dir / '000001_'))}: {reason}\n", capsys.readouterr().err)

    def test_eval_names_scene_without_positive_ground_truth(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        write_dataset(data_dir, [random_scene(i, width=32, height=32) for i in range(2)])
        netpbm.write_pgm16(data_dir / "000001_disp.pgm", np.zeros((32, 32)))
        checkpoint = tmp_path / "net.fdpt"
        save_checkpoint(checkpoint, DepthNet(tiny_arch()))
        assert cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(data_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {data_dir / '000001_'}: ground truth has no positive disparity\n"
        assert captured.out == ""

    @pytest.mark.parametrize("key", ["fusion", "coordconv", "refinement"])
    def test_ablation_key_trains_and_evaluates(self, tmp_path, capsys, key):
        data_dir = tmp_path / "data"
        write_dataset(data_dir, [random_scene(s, width=32, height=32) for s in range(2)])
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(
            "arch.num_levels = 3\n"
            "arch.widths = 4, 6, 8\n"
            f"arch.{key} = false\n"
            "train.stage_epochs = 1, 1, 1\n"
            f"train.checkpoint_dir = {tmp_path / 'ckpt'}\n"
            f"train.dataset_dir = {data_dir}\n"
        )
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        final = tmp_path / "ckpt" / "final.fdpt"
        assert getattr(load_checkpoint(final).cfg, key) is False
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(final), "--data", str(data_dir), "--pp"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 2 + 1
        assert all(np.isfinite([float(v) for v in line.split(",")]).all() for line in lines[1:])

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = readme.split("```\n")[1::2]
        commands = [shlex.split(line) for block in blocks for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("fusiondepth ")]
        assert len(commands) >= 5
        parser = cli.build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])  # argparse exits on anything it cannot parse

    def test_runtime_error_exits_1(self, tmp_path, capsys):
        code = cli.main(["eval", "--checkpoint", str(tmp_path / "no.fdpt"),
                         "--data", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_train_checkpoints(self, trained):
        for name in ("stage1.fdpt", "stage2.fdpt", "stage3.fdpt", "final.fdpt"):
            assert os.path.exists(trained / "ckpt" / name)
        log = (trained / "ckpt" / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,stage,mean_loss"

    def test_eval_report(self, trained, capsys):
        code = cli.main(["eval", "--checkpoint", str(trained / "ckpt" / "final.fdpt"),
                         "--data", str(trained / "data")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "abs_rel,sq_rel,rmse,rmse_log,d1_all,delta1,delta2,delta3"
        assert len(lines) == 1 + 3 + 1  # header, one row per scene, aggregate
        for line in lines[1:]:
            assert len(line.split(",")) == 8

    def test_eval_with_pp(self, trained, capsys):
        code = cli.main(["eval", "--checkpoint", str(trained / "ckpt" / "final.fdpt"),
                         "--data", str(trained / "data"), "--pp"])
        assert code == 0
        capsys.readouterr()

    def test_predict_disparity(self, trained, tmp_path, capsys):
        out = tmp_path / "disp.pgm"
        code = cli.main(["predict", "--checkpoint", str(trained / "ckpt" / "final.fdpt"),
                         "--image", str(trained / "data" / "000000_left.ppm"),
                         "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        from fusiondepth import netpbm
        disp = netpbm.read_pgm16(out)
        assert disp.shape == (32, 32)
        assert (disp >= 0).all() and disp.max() <= 0.3 * 32

    def test_predict_depth(self, trained, tmp_path, capsys):
        out = tmp_path / "depth.pgm"
        code = cli.main(["predict", "--checkpoint", str(trained / "ckpt" / "final.fdpt"),
                         "--image", str(trained / "data" / "000000_left.ppm"),
                         "--out", str(out), "--depth", "--pp"])
        assert code == 0
        capsys.readouterr()
        from fusiondepth import netpbm
        depth = netpbm.read_pgm16(out)
        assert depth.shape == (32, 32) and (depth > 0).all()
