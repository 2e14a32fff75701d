"""Adam, the staged training schedule, and the flat config file format.

Each stage is a LossWeights value. Stage 1 trains with the configured
weights; stage 2 zeroes the factors of the two coarsest scales; stage 3 also
zeroes the smoothness and occlusion weights. Per-epoch mean losses append to
train_log.csv and a checkpoint lands at each stage boundary.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import scenes
from .losses import LossWeights, total_loss
from .network import (ARCH_KEYS, ArchConfig, ConfigError, DepthNet, config_keys, format_config_lines,
                      image_batch, read_config_lines, save_checkpoint)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 1
    stage_epochs: tuple = (25, 5, 5)
    seed: int = 0
    dataset_dir: str = ""
    checkpoint_dir: str = "checkpoints"
    arch: ArchConfig = field(default_factory=ArchConfig)
    loss: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        self.stage_epochs = tuple(int(e) for e in self.stage_epochs)
        if len(self.stage_epochs) != 3 or any(e < 0 for e in self.stage_epochs):
            raise ConfigError(f"stage_epochs must be 3 non-negative integers, got {self.stage_epochs}")
        # each comparison is written so that NaN fails it
        if not 0.0 < self.lr < math.inf:
            raise ConfigError(f"learning rate must be positive and finite, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def stage_plan(cfg):
    """(epochs, loss weights) per stage."""
    f = cfg.loss.scale_factors
    two_finest = replace(cfg.loss, scale_factors=f[:2] + (0.0, 0.0))
    fine_tune = replace(two_finest, smoothness=0.0, occlusion=0.0)
    return list(zip(cfg.stage_epochs, (cfg.loss, two_finest, fine_tune)))


class Adam:
    """Bias-corrected Adam over a fixed list of leaf tensors, with learning
    rate `lr` and the usual betas (0.9, 0.999) and eps (1e-8)."""

    def __init__(self, tensors, lr):
        self.tensors = list(tensors)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(t.values) for t in self.tensors]
        self.v = [np.zeros_like(t.values) for t in self.tensors]

    def step(self, grads):
        """One update from `grads`, the dict ad.backward returns; a tensor
        without an entry only lets its moments decay."""
        self.step_count += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.step_count
        bc2 = 1.0 - ADAM_BETA2 ** self.step_count
        for t, m, v in zip(self.tensors, self.m, self.v):
            g = grads.get(t)
            m *= ADAM_BETA1
            v *= ADAM_BETA2
            if g is not None:
                m += (1.0 - ADAM_BETA1) * g
                v += (1.0 - ADAM_BETA2) * g * g
            t.values -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def _train_epoch(net, opt, samples, rng, batch_size, weights):
    order = rng.permutation(len(samples))
    total = 0.0
    for start in range(0, len(order), batch_size):
        chunk = [samples[i] for i in order[start:start + batch_size]]
        left = image_batch([s.left for s in chunk])
        right = image_batch([s.right for s in chunk])
        loss = total_loss(net.forward(left), net.forward(right), left, right, weights)
        opt.step(ad.backward(loss))
        total += loss.item() * len(chunk)
    return total / len(order)


def run_schedule(cfg: TrainConfig, log=None):
    """Train per the staged schedule; returns (net, log_path)."""
    samples, _, _, _ = scenes.load_dataset(cfg.dataset_dir)
    cfg.arch.check_images([s.left for s in samples], f"dataset at {cfg.dataset_dir}")
    os.makedirs(cfg.checkpoint_dir, exist_ok=True)

    net = DepthNet(cfg.arch, seed=cfg.seed)
    opt = Adam([t for _, t in net.parameters()], cfg.lr)
    rng = np.random.default_rng(cfg.seed)

    log_path = os.path.join(cfg.checkpoint_dir, "train_log.csv")
    with open(log_path, "w") as f:
        f.write("epoch,stage,mean_loss\n")

    epoch = 0
    for stage_no, (epochs, weights) in enumerate(stage_plan(cfg), start=1):
        for _ in range(epochs):
            epoch += 1
            mean_loss = _train_epoch(net, opt, samples, rng, cfg.batch_size, weights)
            with open(log_path, "a") as f:
                f.write(f"{epoch},{stage_no},{mean_loss:.17g}\n")
            if log is not None:
                log(f"epoch {epoch} (stage {stage_no}): loss {mean_loss:.6f}")
        save_checkpoint(os.path.join(cfg.checkpoint_dir, f"stage{stage_no}.fdpt"), net)
    save_checkpoint(os.path.join(cfg.checkpoint_dir, "final.fdpt"), net)
    return net, log_path


# ---------------------------------------------------------------------------
# flat `key = value` config files


# the nested `arch` and `loss` fields have no plain default, so their keys come from their own dataclasses
CONFIG_KEYS = {**ARCH_KEYS, **config_keys("loss", LossWeights), **config_keys("train", TrainConfig)}


def parse_config(path):
    """Read a TrainConfig from `<section>.<field> = value` lines of a utf-8 file."""
    with open(path, "rb") as f:
        values = read_config_lines(f.read().splitlines(), CONFIG_KEYS, path)
    try:
        return TrainConfig(arch=ArchConfig(**values[ArchConfig]), loss=LossWeights(**values[LossWeights]),
                           **values[TrainConfig])
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def default_config_text():
    """A config file with every key at its default, ready to edit."""
    cfg = TrainConfig(dataset_dir="data")
    return "# fusiondepth training configuration\n" + format_config_lines(CONFIG_KEYS, cfg, cfg.arch, cfg.loss)
