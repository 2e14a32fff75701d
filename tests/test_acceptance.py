"""Acceptance gate. One test per criterion; each prints a PASS/FAIL line.

The recovery fixture trains the full default configuration once (minutes);
run this module alone with `pytest tests/test_acceptance.py -v`. The two
criteria that use it are marked `slow`, so `pytest -m "not slow"` skips the
training.
"""

import os
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import check_gradients
from fusiondepth import autodiff as ad
from fusiondepth import cli
from fusiondepth import losses as ls
from fusiondepth import metrics as mt
from fusiondepth import netpbm
from fusiondepth import training as tr
from fusiondepth.network import (
    ArchConfig,
    DepthNet,
    coord_channels,
    fusion_members,
    image_batch,
    load_checkpoint,
    save_checkpoint,
)
from fusiondepth.scenes import nonoccluded_mask, random_scene, render_stereo, write_dataset


import conftest


def report(number, ok, detail):
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def leaf(rng, shape, lo=-1.0, hi=1.0):
    return ad.Tensor(rng.uniform(lo, hi, shape), requires_grad=True)


def away_from(values, points, margin):
    """Push entries of `values` out of `margin` neighbourhoods of `points`."""
    out = values.copy()
    for p in points:
        near = np.abs(out - p) < margin
        out[near] = p + margin * np.sign(out[near] - p + 1e-12)
    return out


def op_checks(seed):
    """(name, build, leaves) triples covering every differentiable op."""
    rng = np.random.default_rng(seed)
    shape = (1, 2, 4, 6)
    a = leaf(rng, shape)
    b = leaf(rng, shape, 0.5, 1.5)
    interior = ad.Tensor(away_from(rng.uniform(-1, 1, shape), (-0.5, 0.0, 0.5), 0.05),
                         requires_grad=True)
    x_img = leaf(rng, (1, 2, 6, 6))
    w1 = leaf(rng, (3, 2, 3, 3), -0.5, 0.5)
    w2 = leaf(rng, (3, 2, 3, 3), -0.5, 0.5)
    bias = leaf(rng, (1, 3, 1, 1), -0.5, 0.5)
    shuffle_in = leaf(rng, (1, 4, 3, 3))
    src = leaf(rng, (1, 2, 4, 8))
    frac = rng.uniform(0.2, 0.8, (1, 1, 4, 8))
    whole = rng.integers(-2, 3, (1, 1, 4, 8))
    offs = ad.Tensor((whole + frac) / 8.0, requires_grad=True)
    pair = leaf(rng, (2, 2, 3, 4))

    def m(t):
        return ad.reduce_mean(t)

    return [
        ("add", lambda: m(a + b), [a, b]),
        ("sub", lambda: m(a - b), [a, b]),
        ("mul", lambda: m(a * b), [a, b]),
        ("div", lambda: m(ad.div(a, b)), [a, b]),
        ("scale", lambda: m(ad.scale(a, 1.7)), [a]),
        ("shift", lambda: m(ad.shift(a, 0.3)), [a]),
        ("elu", lambda: m(ad.elu(a)), [a]),
        ("sigmoid", lambda: m(ad.sigmoid(a)), [a]),
        ("absolute", lambda: m(ad.absolute(interior)), [interior]),
        ("clamp01", lambda: m(ad.clamp01(ad.shift(interior, 0.5))), [interior]),
        ("concat", lambda: m(ad.concat_channels([a, b])), [a, b]),
        ("diff_x", lambda: m(ad.diff(a, 3) * ad.diff(b, 3)), [a, b]),
        ("diff_y", lambda: m(ad.diff(a, 2) * ad.diff(b, 2)), [a, b]),
        ("upsample", lambda: m(ad.upsample_nearest(a)), [a]),
        ("avg_pool", lambda: m(ad.avg_pool(x_img, 3, 1)), [x_img]),
        ("avg_pool_s2", lambda: m(ad.avg_pool(x_img, 2, 2)), [x_img]),
        ("pixel_shuffle", lambda: m(ad.pixel_shuffle(shuffle_in)), [shuffle_in]),
        ("conv2d", lambda: m(ad.conv2d(x_img, w1, bias)), [x_img, w1, bias]),
        ("conv2d_s2", lambda: m(ad.conv2d(x_img, w2, bias, stride=2)), [x_img, w2, bias]),
        ("grid_sample", lambda: m(ad.grid_sample_bilinear(src, offs)), [src, offs]),
        ("swap_eyes", lambda: m(ad.swap_eyes(pair) * pair), [pair]),
    ]


def composite_loss_check(seed):
    """Finite differences through the full network + loss, on small leaves."""
    arch = ArchConfig(num_levels=3, widths=(4, 6, 8))
    net = DepthNet(arch, seed=seed)
    sample = render_stereo(random_scene(seed, width=32, height=32, two_layer=True))

    def build():
        return tr._pair_loss(net, sample, ls.LossWeights())

    params = dict(net.parameters())
    names = [
        "encoder.1.conv1.bias",
        "encoder.3.conv2.bias",
        "fusion.1.conv.bias",
        "refine.0.res4.bias",
        "refine.0.post2.weight",
        "head.3.conv.bias",
    ]
    leaves = [params[n] for n in names]
    return check_gradients(build, leaves, tol=1e-3, step=1e-6)


def test_criterion_1():
    start = time.monotonic()
    worst_op, seeds_used = 0.0, 0
    for k in range(2):
        for name, build, leaves in op_checks(seed=100 + 25 * k):
            seeds_used += 1
            err = check_gradients(build, leaves, tol=1e-4)
            worst_op = max(worst_op, err)
    worst_e2e = max(composite_loss_check(s) for s in (0, 1))
    elapsed = time.monotonic() - start
    ok = worst_op < 1e-4 and worst_e2e < 1e-3 and elapsed < 120
    report(1, ok, f"gradients: worst op {worst_op:.2e} (<1e-4), "
                  f"composite {worst_e2e:.2e} (<1e-3), "
                  f"{seeds_used} seeded op checks, {elapsed:.1f}s (<120s)")


def test_criterion_2():
    start = time.monotonic()
    widths_for = {3: (8, 16, 32), 4: (8, 16, 32, 64), 5: (16, 32, 64, 128, 256)}
    for levels, widths in widths_for.items():
        for p in range(1, levels + 1):
            members = fusion_members(p, levels)
            assert members == [q for q in (p - 1, p, p + 1) if 1 <= q <= levels]

        h = w = 8 << levels
        row, col, radius = coord_channels(h, w)[0]
        assert radius[h // 2, w // 2] == 0.0
        corner = np.sqrt(h * h / 4 + w * w / 4)
        assert radius[0, 0] * corner == pytest.approx(corner, rel=1e-12)
        assert radius.max() == 1.0
        assert row[0, 0] == -1.0 and row[-1, 0] == 1.0
        assert col[0, 0] == -1.0 and col[0, -1] == 1.0

        net = DepthNet(ArchConfig(num_levels=levels, widths=widths), seed=0)
        for module in net.refine.values():
            tower = [module.res1, module.res2, module.res3, module.res4]
            assert [c.weight.shape[0] for c in tower] == [32, 32, 16, 4]
            assert module.res4.weight.shape[0] == 4  # 4 = 2x2 shuffle to one channel
        coarse_logits = ad.Tensor(np.random.default_rng(0).uniform(-2, 2, (1, 1, 8, 8)))
        features = ad.Tensor(np.random.default_rng(1).uniform(-1, 1, (1, widths[0], 8, 8)))
        refined = net.refine[0](coarse_logits, features)
        assert refined.shape == (1, 1, 16, 16)

        size = 1 << (levels + 1)
        image = ad.Tensor(np.random.default_rng(2).uniform(0, 1, (1, 3, size, 2 * size)))
        maps = net.forward(image).maps
        assert [m.shape for m in maps] == [(1, 1, size >> s, 2 * size >> s) for s in range(4)]
    elapsed = time.monotonic() - start
    report(2, True, f"structure holds for L in {{3,4,5}}: fusion membership, "
                    f"coordinate channels, 32/32/16/4 tower, 4-scale shapes ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def recovery(tmp_path_factory):
    """The full default training run; shared by criteria 3 and 5."""
    root = tmp_path_factory.mktemp("recovery")
    data_dir = str(root / "data")
    write_dataset(data_dir, [random_scene(i, width=64, height=64, two_layer=bool(i % 2)) for i in range(40)])
    cfg = tr.TrainConfig(dataset_dir=data_dir, checkpoint_dir=str(root / "ckpt"))
    start = time.monotonic()
    net, log_path = tr.run_schedule(cfg)
    wall = time.monotonic() - start
    return SimpleNamespace(net=net, log=log_path, data=data_dir, wall=wall)


def disparity_mae(net, data_dir):
    from fusiondepth.scenes import load_dataset

    samples, _, _, _ = load_dataset(data_dir)
    num = den = 0.0
    for sample in samples:
        width = sample.left.shape[1]
        pred = net.forward(image_batch(sample.left[None])).maps[0].values[0, 0] * width
        gt = sample.gt_disparity
        mask = nonoccluded_mask(gt)
        num += np.abs(pred - gt)[mask].sum()
        den += mask.sum()
    return num / den


@pytest.mark.slow
def test_criterion_3(recovery):
    mae = disparity_mae(recovery.net, recovery.data)
    rows = [line.split(",") for line in open(recovery.log).read().splitlines()[1:]]
    first, last = float(rows[0][2]), float(rows[-1][2])
    ok = mae < 0.5 and last < 0.5 * first and recovery.wall < 1800
    report(3, ok, f"recovery: in-sample disparity MAE {mae:.3f}px over its 40 training scenes (<0.5), "
                  f"loss {first:.4f}->{last:.4f} (ratio {last / first:.2f} <0.5), "
                  f"train {recovery.wall:.0f}s (<1800s)")


def test_criterion_4():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        gt = rng.uniform(0.5, 100.0, (10, 10))
        pred = gt * rng.uniform(0.4, 2.5, (10, 10))
        mask = rng.uniform(size=(10, 10)) < 0.8
        if not mask.any():
            mask[0, 0] = True
        m = mt.compute_metrics(pred, gt, mask)
        p = np.clip(pred[mask], 1e-3, 80.0)
        g = np.clip(gt[mask], 1e-3, 80.0)
        ratio = np.maximum(p / g, g / p)
        reference = {
            "abs_rel": np.mean(np.abs(p - g) / g),
            "sq_rel": np.mean((p - g) ** 2 / g),
            "rmse": np.sqrt(np.mean((p - g) ** 2)),
            "rmse_log": np.sqrt(np.mean((np.log(p) - np.log(g)) ** 2)),
            "delta1": np.mean(ratio < 1.25),
            "delta2": np.mean(ratio < 1.25 ** 2),
            "delta3": np.mean(ratio < 1.25 ** 3),
        }
        for key, want in reference.items():
            worst = max(worst, abs(getattr(m, key) - want))
        err = np.abs(pred[mask] - gt[mask])
        d1_want = 100.0 * np.mean((err > 3.0) & (err > 0.05 * gt[mask]))
        worst = max(worst, abs(mt.compute_d1(pred, gt, mask) - d1_want))

    gt = np.random.default_rng(7).uniform(1, 10, (10, 10))
    closed = mt.compute_metrics(1.3 * gt, gt, np.ones_like(gt, bool))
    exact = closed.delta1 == 0.0 and closed.delta2 == 1.0 and abs(closed.abs_rel - 0.3) < 1e-12
    ok = worst < 1e-12 and exact
    report(4, ok, f"metric oracle: 100 brute-force instances, worst gap {worst:.1e} (<1e-12), "
                  f"1.3x closed forms hold")


ABLATION_EPOCHS = "5, 1, 1"  # same staged structure as criterion 3, shortened


def valid_report_lines(text, n_samples):
    lines = text.splitlines()
    assert lines[0] == "abs_rel,sq_rel,rmse,rmse_log,d1_all,delta1,delta2,delta3"
    assert len(lines) == n_samples + 2
    for line in lines[1:]:
        vals = [float(x) for x in line.split(",")]
        assert len(vals) == 8 and all(np.isfinite(vals))
        assert all(v >= 0 for v in vals[:4])
        assert 0 <= vals[4] <= 100
        assert all(0 <= v <= 1 for v in vals[5:])
    return lines


@pytest.mark.slow
def test_criterion_5(recovery, tmp_path, capsys):
    details = []
    for key in ("fusion", "coordconv"):
        label = f"no-{key}"
        ckpt_dir = tmp_path / label
        cfg_path = tmp_path / f"{label}.cfg"
        cfg_path.write_text(
            f"arch.{key} = false\n"
            f"train.stage_epochs = {ABLATION_EPOCHS}\n"
            f"train.checkpoint_dir = {ckpt_dir}\n"
            f"train.dataset_dir = {recovery.data}\n"
        )
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        code = cli.main(["eval", "--checkpoint", str(ckpt_dir / "final.fdpt"),
                         "--data", recovery.data, "--pp"])
        out = capsys.readouterr().out
        assert code == 0
        lines = valid_report_lines(out, n_samples=40)
        details.append(f"{label} abs_rel {lines[-1].split(',')[0]}")
    report(5, True, "ablations trained and evaluated cleanly "
                    f"({ABLATION_EPOCHS} epochs): " + "; ".join(details))


def test_criterion_6(tmp_path):
    runs = []
    data_dir = str(tmp_path / "data")
    write_dataset(data_dir, [random_scene(s, width=32, height=32) for s in range(2)])
    for name in ("a", "b"):
        cfg = tr.TrainConfig(
            stage_epochs=(1, 1, 1),
            dataset_dir=data_dir,
            checkpoint_dir=str(tmp_path / name),
            arch=ArchConfig(num_levels=3, widths=(4, 6, 8)),
        )
        _, log_path = tr.run_schedule(cfg)
        runs.append((open(log_path, "rb").read(),
                     open(os.path.join(cfg.checkpoint_dir, "final.fdpt"), "rb").read()))
    repeatable = runs[0] == runs[1]

    net = DepthNet(ArchConfig(), seed=3)
    image = ad.Tensor(np.random.default_rng(4).uniform(0, 1, (1, 3, 32, 32)))
    before = net.forward(image).maps[0].values.copy()
    ckpt = tmp_path / "round.fdpt"
    save_checkpoint(str(ckpt), net)
    after = load_checkpoint(str(ckpt)).forward(image).maps[0].values
    round_trip = np.array_equal(before, after)

    img = np.random.default_rng(5).uniform(0, 1, (12, 14, 3))
    netpbm.write_ppm(tmp_path / "q.ppm", img)
    ppm_gap = np.abs(netpbm.read_ppm(tmp_path / "q.ppm") - img).max()
    disp = np.random.default_rng(6).integers(0, 19, (12, 14)).astype(float)
    netpbm.write_pgm16(tmp_path / "q.pgm", disp)
    pgm_exact = np.array_equal(netpbm.read_pgm16(tmp_path / "q.pgm"), disp)

    ok = repeatable and round_trip and ppm_gap <= 1.0 / 255.0 and pgm_exact
    report(6, ok, f"determinism: repeat runs bit-identical {repeatable}, "
                  f"checkpoint round trip bit-exact {round_trip}, "
                  f"ppm gap {ppm_gap:.2e} (<=1/255), integer pgm exact {pgm_exact}")


def test_criterion_7():
    worst = -1.0
    for seed in range(50):
        sample = render_stereo(random_scene(seed, width=64, height=64, two_layer=bool(seed % 2)))
        gt = sample.gt_disparity
        recon = ad.grid_sample_bilinear(image_batch(sample.right[None]), ad.Tensor(-gt[None, None] / 64.0))
        mask = nonoccluded_mask(gt)
        err = np.abs(recon.values - image_batch(sample.left[None]).values)[0, :, mask].max()
        worst = max(worst, float(err))
    ok = worst < 1e-12
    report(7, ok, f"gt-warp identity over 50 scenes: worst error {worst:.1e} (<1e-12)")
