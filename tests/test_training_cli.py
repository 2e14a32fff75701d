"""Optimizer arithmetic, staged schedule behavior, config parsing, CLI wiring."""

import os
from pathlib import Path

import numpy as np
import pytest

from fusiondepth import autodiff as ad
from fusiondepth import cli
from fusiondepth import training as tr
from fusiondepth.network import ArchConfig
from fusiondepth.scenes import random_scene, render_stereo, write_dataset


def leaf(value):
    return ad.Tensor(np.array(value, dtype=np.float64).reshape(1, 1, 1, 1), requires_grad=True)


class TestAdam:
    def test_first_step_magnitude(self):
        # bias correction makes the first update lr-sized regardless of gradient scale
        p = leaf(1.0)
        opt = tr.Adam([p], lr=0.1)
        p.grad = np.full(p.shape, 1.0)
        opt.step()
        assert p.values[0, 0, 0, 0] == pytest.approx(0.9, abs=1e-8)
        p2 = leaf(1.0)
        opt2 = tr.Adam([p2], lr=0.1)
        p2.grad = np.full(p2.shape, 1e-3)
        opt2.step()
        assert p2.values[0, 0, 0, 0] == pytest.approx(0.9, abs=1e-5)

    def test_step_counter_and_zero_grad(self):
        p = leaf(1.0)
        opt = tr.Adam([p])
        p.grad = np.ones(p.shape)
        opt.step()
        assert opt.step_count == 1
        opt.zero_grad()
        assert p.grad is None

    def test_missing_gradient_keeps_momentum(self):
        p = leaf(1.0)
        opt = tr.Adam([p], lr=0.1)
        p.grad = np.ones(p.shape)
        opt.step()
        after_first = p.values.copy()
        p.grad = None
        opt.step()
        assert p.values[0, 0, 0, 0] < after_first[0, 0, 0, 0]  # momentum keeps moving
        assert np.isfinite(p.values).all()

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            p = leaf(0.5)
            opt = tr.Adam([p], lr=0.01)
            for k in range(5):
                p.grad = np.full(p.shape, 0.3 * (k + 1))
                opt.step()
            runs.append(p.values.copy())
        assert np.array_equal(runs[0], runs[1])


class TestStagePlan:
    def test_three_stages(self):
        cfg = tr.TrainConfig(stage_epochs=(25, 5, 5))
        plan = tr.stage_plan(cfg)
        assert [epochs for epochs, _ in plan] == [25, 5, 5]
        f = cfg.loss.scale_factors
        assert plan[0][1] == cfg.loss
        assert plan[1][1].scale_factors == f[:2] + (0.0, 0.0)
        assert plan[2][1].scale_factors == f[:2] + (0.0, 0.0)
        assert plan[1][1].smoothness == cfg.loss.smoothness and plan[1][1].occlusion == cfg.loss.occlusion

    def test_final_stage_drops_regularizers(self):
        cfg = tr.TrainConfig(stage_epochs=(1, 1, 1))
        _, weights = tr.stage_plan(cfg)[2]
        assert weights.smoothness == 0.0 and weights.occlusion == 0.0
        assert weights.alpha_ssim == cfg.loss.alpha_ssim
        assert weights.lr_consistency == cfg.loss.lr_consistency


class TestParseConfig:
    def test_default_text_round_trip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(tr.default_config_text())
        assert tr.parse_config(path) == tr.TrainConfig(dataset_dir="data")

    def test_readme_block_matches_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Configuration", 1)[1].split("```\n")[1]
        (tmp_path / "readme.cfg").write_text(block)
        (tmp_path / "default.cfg").write_text(tr.default_config_text())
        assert tr.parse_config(tmp_path / "readme.cfg") == tr.parse_config(tmp_path / "default.cfg")

    def test_full_override(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "arch.levels = 3\n"
            "arch.widths = 4, 6, 8\n"
            "arch.reservation = 0.4\n"
            "arch.coordconv = false\n"
            "arch.d_max = 0.25\n"
            "loss.alpha_ssim = 0.8\n"
            "loss.scale_factors = 1, 0.5, 0.25, 0.2\n"
            "train.lr = 0.001\n"
            "train.stage_epochs = 2, 1, 1\n"
            "train.seed = 7\n"
            "train.checkpoint_dir = out\n"
            "data.dir = somewhere\n"
        )
        cfg = tr.parse_config(path)
        assert cfg.arch.num_levels == 3
        assert cfg.arch.widths == (4, 6, 8)
        assert cfg.arch.reservation == 0.4
        assert not cfg.arch.coordconv_enabled
        assert cfg.arch.d_max == 0.25
        assert cfg.loss.alpha_ssim == 0.8
        assert cfg.loss.scale_factors == (1.0, 0.5, 0.25, 0.2)
        assert cfg.lr == 0.001
        assert cfg.stage_epochs == (2, 1, 1)
        assert cfg.seed == 7
        assert cfg.checkpoint_dir == "out"
        assert cfg.dataset_dir == "somewhere"

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# top\n\ntrain.lr = 0.01\n  # indented comment\n")
        assert tr.parse_config(path).lr == 0.01

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("train.checkpoint_dir = runs#1  # trailing comment\ndata.dir = a#b\t# after a tab\n")
        cfg = tr.parse_config(path)
        assert cfg.checkpoint_dir == "runs#1" and cfg.dataset_dir == "a#b"
        path.write_text(tr.format_config_lines(tr.CONFIG_KEYS, cfg, cfg.arch, cfg.loss))
        assert tr.parse_config(path) == cfg

    @pytest.mark.parametrize("value", ["runs #1", "#runs", " runs", "runs\t", "a\nb"])
    def test_unreadable_string_value_rejected_on_format(self, value):
        cfg = tr.TrainConfig(checkpoint_dir=value)
        with pytest.raises(tr.ConfigError, match="train.checkpoint_dir"):
            tr.format_config_lines(tr.CONFIG_KEYS, cfg, cfg.arch, cfg.loss)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("train.momentum = 0.9\n")
        with pytest.raises(tr.ConfigError):
            tr.parse_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("train.lr 0.01\n")
        with pytest.raises(tr.ConfigError):
            tr.parse_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("train.lr = fast\n")
        with pytest.raises(tr.ConfigError):
            tr.parse_config(path)

    @pytest.mark.parametrize("line, match", [
        ("train.lr = -1", "learning rate must be positive"),
        ("arch.levels = 2", "need at least 3 levels"),
        ("loss.scale_factors = 1.0, 0.5", "need 4 scale factors"),
    ])
    def test_range_error_names_file(self, tmp_path, line, match):
        path = tmp_path / "cfg.txt"
        path.write_text(line + "\n")
        with pytest.raises(tr.ConfigError, match=match) as info:
            tr.parse_config(path)
        assert str(info.value).startswith(f"{path}: ")


class TestBatch:
    def test_stacked_batch_is_mean_of_samples(self):
        samples = [render_stereo(random_scene(seed, width=32, height=32)) for seed in range(2)]
        net = tr.DepthNet(tiny_arch(), seed=3)
        leaves = [t for _, t in net.parameters()]

        def loss_and_grad(sample):
            for t in leaves:
                t.grad = None
            loss = tr.total_loss(net.forward(sample.left), net.forward(sample.right), sample)
            ad.backward(loss)
            return loss.item(), np.concatenate([t.grad.ravel() for t in leaves])

        batch = tr._stack_samples(samples)
        assert batch.left.shape[0] == 2 and batch.right.shape[0] == 2
        loss, grad = loss_and_grad(batch)
        (loss_0, grad_0), (loss_1, grad_1) = (loss_and_grad(s) for s in samples)
        assert loss == pytest.approx((loss_0 + loss_1) / 2, rel=1e-12)
        mean_grad = (grad_0 + grad_1) / 2
        assert np.linalg.norm(grad - mean_grad) <= 1e-12 * np.linalg.norm(mean_grad)


def tiny_arch():
    return ArchConfig(num_levels=3, widths=(4, 6, 8))


def tiny_config(root, stage_epochs=(1, 1, 1), **loss_overrides):
    data_dir = os.path.join(root, "data")
    if not os.path.isdir(data_dir):
        write_dataset(data_dir, [random_scene(s, width=32, height=32) for s in range(2)])
    cfg = tr.TrainConfig(
        lr=1e-3,
        stage_epochs=stage_epochs,
        dataset_dir=data_dir,
        checkpoint_dir=os.path.join(root, "ckpt"),
        arch=tiny_arch(),
    )
    for key, value in loss_overrides.items():
        setattr(cfg.loss, key, value)
    return cfg


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

    def test_final_stage_ignores_regularizer_weights(self, tmp_path):
        cfg_a = tiny_config(str(tmp_path), stage_epochs=(0, 0, 2), smoothness=0.1, occlusion=0.01)
        cfg_b = tiny_config(str(tmp_path), stage_epochs=(0, 0, 2), smoothness=1e6, occlusion=1e6)
        cfg_b.checkpoint_dir = str(tmp_path / "ckpt_b")
        _, log_a = tr.run_schedule(cfg_a)
        _, log_b = tr.run_schedule(cfg_b)
        assert open(log_a).read() == open(log_b).read()

    def test_missing_dataset(self, tmp_path):
        cfg = tr.TrainConfig(dataset_dir=str(tmp_path / "nowhere"), arch=tiny_arch())
        with pytest.raises(FileNotFoundError):
            tr.run_schedule(cfg)

    def test_empty_dataset(self, tmp_path):
        data_dir = str(tmp_path / "data")
        write_dataset(data_dir, [])
        cfg = tr.TrainConfig(dataset_dir=data_dir, arch=tiny_arch())
        with pytest.raises(tr.ConfigError):
            tr.run_schedule(cfg)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny end-to-end CLI run shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    assert cli.main(["gen-data", "--out", str(data_dir), "--count", "3",
                     "--seed", "1", "--width", "32", "--height", "32"]) == 0
    cfg_path = root / "train.cfg"
    cfg_path.write_text(
        "arch.levels = 3\n"
        "arch.widths = 4, 6, 8\n"
        "train.lr = 1e-3\n"
        "train.stage_epochs = 1, 1, 1\n"
        f"train.checkpoint_dir = {root / 'ckpt'}\n"
        f"data.dir = {data_dir}\n"
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

    def test_gen_data_zero_count(self, tmp_path):
        out = tmp_path / "d"
        assert cli.main(["gen-data", "--out", str(out), "--count", "0"]) == 0
        assert os.path.exists(out / "manifest.txt")

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
                                      "arch.d_max = nan"])
    def test_invalid_loss_weights_exit_1_before_training(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(f"{line}\ntrain.checkpoint_dir = {tmp_path / 'ckpt'}\ndata.dir = {tmp_path / 'data'}\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {cfg_path}: ") and "epoch" not in out
        assert not (tmp_path / "ckpt").exists()

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
