"""Command-line surface: gen-data, train, eval, predict."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import autodiff as ad
from . import metrics as me
from . import netpbm, scenes
from .network import load_checkpoint
from .training import parse_config, run_schedule


def _disparity_px(net, image, use_pp):
    """Scale-0 disparity in pixels, optionally post-processed with the
    mirrored-input pass."""
    width = image.shape[3]
    disp = net.forward(image).maps[0].values[0, 0] * width
    if not use_pp:
        return disp
    flipped = ad.Tensor(np.ascontiguousarray(image.values[:, :, :, ::-1]))
    disp_flipped = net.forward(flipped).maps[0].values[0, 0] * width
    return me.postprocess(disp, disp_flipped)


def _cmd_gen_data(args):
    specs = [
        scenes.random_scene(args.seed + i, width=args.width, height=args.height, two_layer=bool(i % 2))
        for i in range(args.count)
    ]
    scenes.write_dataset(args.out, specs)
    print(f"wrote {args.count} scenes to {args.out}")
    return 0


def _cmd_train(args):
    cfg = parse_config(args.config)
    if args.no_fusion:
        cfg.arch.fusion_enabled = False
    if args.no_coordconv:
        cfg.arch.coordconv_enabled = False
    net, log_path = run_schedule(cfg, log=print)
    print(f"training log: {log_path}")
    print(f"final checkpoint: {os.path.join(cfg.checkpoint_dir, 'final.fdpt')}")
    return 0


def _cmd_eval(args):
    net = load_checkpoint(args.checkpoint)
    samples, baseline, focal = scenes.load_dataset(args.data)
    if not samples:
        raise ValueError(f"dataset at {args.data} is empty")
    rows = []
    for sample in samples:
        disp = _disparity_px(net, sample.left, args.pp)
        gt = sample.gt_disparity
        mask = gt > 0  # not nonoccluded_mask: perfbench/reference.json pins these metrics
        d1 = me.compute_d1(disp, gt, mask)
        pred_depth = me.disparity_to_depth(disp, baseline, focal)
        gt_depth = me.disparity_to_depth(gt, baseline, focal)
        row = me.compute_metrics(pred_depth, gt_depth, mask, cap=args.cap)
        row.d1_all = d1
        rows.append(row)
    sys.stdout.write(me.format_report(rows))
    return 0


def _cmd_predict(args):
    net = load_checkpoint(args.checkpoint)
    image = ad.Tensor(netpbm.read_ppm(args.image).transpose(2, 0, 1)[None])
    disp = _disparity_px(net, image, args.pp)
    if args.depth:
        baseline, focal, _ = scenes.read_manifest(os.path.dirname(os.path.abspath(args.image)))
        out_map = me.disparity_to_depth(disp, baseline, focal)
    else:
        out_map = disp
    netpbm.write_pgm16(args.out, out_map)
    print(f"wrote {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fusiondepth",
        description="Self-supervised stereo depth: synthetic data, training, evaluation, prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic stereo dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--count", type=int, required=True, help="number of scenes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="run the staged training schedule")
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.add_argument("--no-fusion", action="store_true", help="disable neighbour-level fusion")
    p.add_argument("--no-coordconv", action="store_true", help="disable coordinate channels")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--pp", action="store_true", help="mirrored-input post-processing")
    p.add_argument("--cap", type=float, default=80.0, help="depth cap in meters")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict", help="predict disparity (or depth) for one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True, help="input PPM")
    p.add_argument("--out", required=True, help="output 16-bit PGM")
    p.add_argument("--pp", action="store_true")
    p.add_argument("--depth", action="store_true", help="write metric depth via bf/d from the manifest")
    p.set_defaults(func=_cmd_predict)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        return args.func(args) or 0
    except Exception as e:  # surface the failure, exit nonzero
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
