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
from .losses import LossWeights, StereoSample, total_loss
from .network import (ARCH_KEYS, ArchConfig, ConfigError, DepthNet, format_config_lines, read_config_lines,
                      save_checkpoint)


@dataclass
class TrainConfig:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not self.eps > 0.0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")


def stage_plan(cfg):
    """(epochs, loss weights) per stage."""
    f = cfg.loss.scale_factors
    two_finest = replace(cfg.loss, scale_factors=f[:2] + (0.0, 0.0))
    fine_tune = replace(two_finest, smoothness=0.0, occlusion=0.0)
    return list(zip(cfg.stage_epochs, (cfg.loss, two_finest, fine_tune)))


class Adam:
    """Bias-corrected Adam over a fixed list of leaf tensors."""

    def __init__(self, tensors, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.tensors = list(tensors)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(t.values) for t in self.tensors]
        self.v = [np.zeros_like(t.values) for t in self.tensors]

    def zero_grad(self):
        for t in self.tensors:
            t.grad = None

    def step(self):
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for t, m, v in zip(self.tensors, self.m, self.v):
            g = t.grad
            m *= self.beta1
            v *= self.beta2
            if g is not None:
                m += (1.0 - self.beta1) * g
                v += (1.0 - self.beta2) * g * g
            t.values -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def _stack_samples(chunk):
    return StereoSample(
        left=ad.Tensor(np.concatenate([s.left.values for s in chunk])),
        right=ad.Tensor(np.concatenate([s.right.values for s in chunk])),
        baseline=chunk[0].baseline,
        focal=chunk[0].focal,
    )


def _train_epoch(net, opt, samples, rng, batch_size, weights):
    order = rng.permutation(len(samples))
    total = 0.0
    for start in range(0, len(order), batch_size):
        chunk = [samples[i] for i in order[start:start + batch_size]]
        batch = _stack_samples(chunk)
        left_set = net.forward(batch.left)
        right_set = net.forward(batch.right)
        loss = total_loss(left_set, right_set, batch, weights)
        opt.zero_grad()
        ad.backward(loss)
        opt.step()
        total += loss.item() * len(chunk)
    return total / len(order)


def run_schedule(cfg: TrainConfig, log=None):
    """Train per the staged schedule; returns (net, log_path)."""
    samples, _, _ = scenes.load_dataset(cfg.dataset_dir)
    if not samples:
        raise ConfigError(f"dataset at {cfg.dataset_dir} is empty")
    os.makedirs(cfg.checkpoint_dir, exist_ok=True)

    net = DepthNet(cfg.arch, seed=cfg.seed)
    opt = Adam([t for _, t in net.parameters()], cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
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


CONFIG_KEYS = {
    **ARCH_KEYS,
    "loss.alpha_ssim": (LossWeights, "alpha_ssim"),
    "loss.smoothness": (LossWeights, "smoothness"),
    "loss.lr_consistency": (LossWeights, "lr_consistency"),
    "loss.occlusion": (LossWeights, "occlusion"),
    "loss.scale_factors": (LossWeights, "scale_factors"),
    "train.lr": (TrainConfig, "lr"),
    "train.beta1": (TrainConfig, "beta1"),
    "train.beta2": (TrainConfig, "beta2"),
    "train.eps": (TrainConfig, "eps"),
    "train.batch_size": (TrainConfig, "batch_size"),
    "train.stage_epochs": (TrainConfig, "stage_epochs"),
    "train.seed": (TrainConfig, "seed"),
    "train.checkpoint_dir": (TrainConfig, "checkpoint_dir"),
    "data.dir": (TrainConfig, "dataset_dir"),
}


def parse_config(path):
    """Read a TrainConfig from namespaced `key = value` lines."""
    with open(path) as f:
        values = read_config_lines(f, CONFIG_KEYS, path)
    try:
        return TrainConfig(arch=ArchConfig(**values[ArchConfig]), loss=LossWeights(**values[LossWeights]),
                           **values[TrainConfig])
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def default_config_text():
    """A config file with every key at its default, ready to edit."""
    cfg = TrainConfig(dataset_dir="data")
    return "# fusiondepth training configuration\n" + format_config_lines(CONFIG_KEYS, cfg, cfg.arch, cfg.loss)
