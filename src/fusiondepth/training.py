"""Adam, the staged training schedule, and the flat config file format.

Each stage is a LossWeights value. Stage 1 trains with the default weights;
stage 2 zeroes the factors of the two coarsest scales; stage 3 also zeroes
the smoothness and occlusion weights. Each step takes one scene. Per-epoch
mean losses append to train_log.csv and a checkpoint lands at each stage
boundary.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import scenes
from .losses import MIN_EXTENT, LossWeights, total_loss
from .network import (ARCH_KEYS, ArchConfig, ConfigError, DepthNet, FieldError, config_keys, image_batch,
                      read_config_lines, save_checkpoint)

LEARNING_RATE = 1e-4
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_RUN = 1 << 15  # elements per in-place Adam run: two 256 KiB scratch rows


@dataclass
class TrainConfig:
    stage_epochs: tuple = (25, 5, 5)
    seed: int = 0
    dataset_dir: str = "data"
    checkpoint_dir: str = "checkpoints"
    arch: ArchConfig = field(default_factory=ArchConfig)

    def __post_init__(self):
        self.stage_epochs = tuple(int(e) for e in self.stage_epochs)
        if len(self.stage_epochs) != 3 or any(e < 0 for e in self.stage_epochs):
            raise FieldError(TrainConfig, ("stage_epochs",),
                             f"stage_epochs must be 3 non-negative integers, got {self.stage_epochs}")
        if self.seed < 0:
            raise FieldError(TrainConfig, ("seed",), f"seed must be >= 0, got {self.seed}")


def stage_plan(cfg):
    """(epochs, loss weights) per stage."""
    full = LossWeights()
    two_finest = replace(full, scale_factors=full.scale_factors[:2] + (0.0, 0.0))
    fine_tune = replace(two_finest, smoothness=0.0, occlusion=0.0)
    return list(zip(cfg.stage_epochs, (full, two_finest, fine_tune)))


class Adam:
    """Bias-corrected Adam over a fixed list of leaf tensors, with learning
    rate 1e-4 and the usual betas (0.9, 0.999) and eps (1e-8).

    The moments are flat, and a step updates them and each leaf in place, in
    runs of ADAM_RUN elements through two scratch rows, so it allocates no
    array the size of a tensor. The leaves' values must be C-contiguous: the
    update writes them through a flat view."""

    def __init__(self, tensors):
        self.tensors = list(tensors)
        for t in self.tensors:
            if not t.values.flags.c_contiguous:
                raise ValueError(f"Adam updates leaves in place; the values of {t!r} are not C-contiguous")
        self.step_count = 0
        self.m = [np.zeros(t.values.size) for t in self.tensors]
        self.v = [np.zeros(t.values.size) for t in self.tensors]
        self.scratch_size = min(ADAM_RUN, max((t.values.size for t in self.tensors), default=0))

    def step(self, grads):
        """One update from `grads`, the dict ad.backward returns; a tensor
        without an entry only lets its moments decay. Per element, in this
        order: m*b1 + (1-b1)*g, v*b2 + ((1-b2)*g)*g, then
        lr*(m/bc1) / (sqrt(v/bc2) + eps) off the value."""
        self.step_count += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.step_count
        bc2 = 1.0 - ADAM_BETA2 ** self.step_count
        scratch = np.empty((2, self.scratch_size))
        for t, m, v in zip(self.tensors, self.m, self.v):
            g = grads.get(t)
            if g is not None:
                g = g.reshape(-1)
            values = t.values.reshape(-1)
            for i in range(0, values.size, ADAM_RUN):
                run = slice(i, i + ADAM_RUN)
                p, mr, vr = values[run], m[run], v[run]
                a, b = scratch[0, :p.size], scratch[1, :p.size]
                mr *= ADAM_BETA1
                vr *= ADAM_BETA2
                if g is not None:
                    gr = g[run]
                    mr += np.multiply(1.0 - ADAM_BETA1, gr, out=a)
                    np.multiply(1.0 - ADAM_BETA2, gr, out=a)
                    vr += np.multiply(a, gr, out=a)
                np.divide(mr, bc1, out=a)
                a *= LEARNING_RATE
                np.divide(vr, bc2, out=b)
                np.sqrt(b, out=b)
                b += ADAM_EPS
                p -= np.divide(a, b, out=a)


def _pair_loss(net, sample, weights):
    """The loss of a stereo pair, one graph over one forward of its eyes as a batch."""
    pair = image_batch(np.stack([sample.left, sample.right]))
    return total_loss(net.forward(pair), pair, weights)


def _train_epoch(net, opt, samples, rng, weights):
    order = rng.permutation(len(samples))
    total = 0.0
    for i in order:
        loss = _pair_loss(net, samples[i], weights)
        opt.step(ad.backward(loss))
        total += loss.item()
    return total / len(order)


def run_schedule(cfg: TrainConfig, log=None):
    """Train per the staged schedule; returns (net, log_path)."""
    samples, _, _, _ = scenes.load_dataset(cfg.dataset_dir)
    cfg.arch.check_images([s.left for s in samples], f"dataset at {cfg.dataset_dir}")
    for height, width in {s.left.shape[:2] for s in samples}:
        if min(height, width) < MIN_EXTENT:
            raise ConfigError(f"dataset at {cfg.dataset_dir}: input extents {height}x{width} must be at least "
                              f"{MIN_EXTENT}, for the loss's 3x3 SSIM window at scale 3")
    os.makedirs(cfg.checkpoint_dir, exist_ok=True)

    net = DepthNet(cfg.arch, seed=cfg.seed)
    opt = Adam([t for _, t in net.parameters()])
    rng = np.random.default_rng(cfg.seed)

    log_path = os.path.join(cfg.checkpoint_dir, "train_log.csv")
    with open(log_path, "w") as f:
        f.write("epoch,stage,mean_loss\n")

    epoch = 0
    for stage_no, (epochs, weights) in enumerate(stage_plan(cfg), start=1):
        for _ in range(epochs):
            epoch += 1
            mean_loss = _train_epoch(net, opt, samples, rng, weights)
            with open(log_path, "a") as f:
                f.write(f"{epoch},{stage_no},{mean_loss:.17g}\n")
            if log is not None:
                log(f"epoch {epoch} (stage {stage_no}): loss {mean_loss:.6f}")
        save_checkpoint(os.path.join(cfg.checkpoint_dir, f"stage{stage_no}.fdpt"), net)
    save_checkpoint(os.path.join(cfg.checkpoint_dir, "final.fdpt"), net)
    return net, log_path


# ---------------------------------------------------------------------------
# flat `key = value` config files


# the nested `arch` field has no plain default, so its keys come from ArchConfig
CONFIG_KEYS = {**ARCH_KEYS, **config_keys("train", TrainConfig)}


def parse_config(path):
    """Read a TrainConfig from `<section>.<field> = value` lines of a utf-8
    file; a key the file leaves out keeps its dataclass default. Errors are
    ConfigErrors naming the file, the line and, for a range check, the key."""
    with open(path, "rb") as f:
        return read_config_lines(f.read().splitlines(), CONFIG_KEYS, path,
                                 lambda v: TrainConfig(arch=ArchConfig(**v[ArchConfig]), **v[TrainConfig]))
