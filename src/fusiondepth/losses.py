"""View-synthesis training objective.

All terms are built from engine ops so gradients reach the network: SSIM+L1
appearance matching against bilinear reconstructions, edge-aware disparity
smoothness, left-right disparity consistency, and occlusion regularization,
combined over 4 scales with geometric per-scale factors. Disparities are in
normalized-width units throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .network import ConfigError

SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


@dataclass
class StereoSample:
    """Rectified pair with calibration; gt_disparity, an (H, W) array in
    pixels, is only for evaluation and never enters the loss."""

    left: ad.Tensor
    right: ad.Tensor
    baseline: float
    focal: float
    gt_disparity: np.ndarray | None = None

    def __post_init__(self):
        if self.left.shape != self.right.shape:
            raise ad.ShapeError(f"stereo images differ: {self.left.shape} vs {self.right.shape}")
        if self.baseline <= 0 or self.focal <= 0:
            raise ValueError(f"baseline and focal must be positive, got {self.baseline}, {self.focal}")


@dataclass
class LossWeights:
    """Term weights and per-scale factors; a weight or factor of 0 leaves
    that term or scale out of the graph."""

    alpha_ssim: float = 0.85
    smoothness: float = 0.1
    lr_consistency: float = 1.0
    occlusion: float = 0.01
    scale_factors: tuple = (1.0, 0.5, 0.25, 0.125)

    def __post_init__(self):
        self.scale_factors = tuple(float(f) for f in self.scale_factors)
        if len(self.scale_factors) != 4:
            raise ConfigError(f"need 4 scale factors, got {len(self.scale_factors)}")
        for name in ("smoothness", "lr_consistency", "occlusion"):
            if not getattr(self, name) >= 0.0:
                raise ConfigError(f"{name} weight must be >= 0, got {getattr(self, name)}")
        if not all(f >= 0.0 for f in self.scale_factors):
            raise ConfigError(f"scale factors must be >= 0, got {self.scale_factors}")
        if not 0.0 <= self.alpha_ssim <= 1.0:
            raise ConfigError(f"alpha_ssim must lie in [0, 1], got {self.alpha_ssim}")


def reconstruct(source, disparity, direction):
    """Warp `source` horizontally by `disparity` to synthesize the other view.

    direction names the view being reconstructed: "left" samples the source
    at j - d*W, "right" at j + d*W.
    """
    if direction == "left":
        offsets = ad.scale(disparity, -1.0)
    elif direction == "right":
        offsets = disparity
    else:
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    return ad.grid_sample_bilinear(source, offsets)


def ssim(x, y):
    """Per-pixel SSIM from 3x3 block statistics (valid windows)."""
    mu_x = ad.avg_pool(x, 3, 1)
    mu_y = ad.avg_pool(y, 3, 1)
    sigma_x = ad.avg_pool(ad.mul(x, x), 3, 1) - ad.mul(mu_x, mu_x)
    sigma_y = ad.avg_pool(ad.mul(y, y), 3, 1) - ad.mul(mu_y, mu_y)
    sigma_xy = ad.avg_pool(ad.mul(x, y), 3, 1) - ad.mul(mu_x, mu_y)
    num = (2.0 * ad.mul(mu_x, mu_y) + SSIM_C1) * (2.0 * sigma_xy + SSIM_C2)
    den = (ad.mul(mu_x, mu_x) + ad.mul(mu_y, mu_y) + SSIM_C1) * (sigma_x + sigma_y + SSIM_C2)
    return ad.div(num, den)


def appearance_loss(target, reconstruction, weights):
    alpha = weights.alpha_ssim
    ssim_term = ad.reduce_mean(ad.clamp((1.0 - ssim(target, reconstruction)) * 0.5, 0.0, 1.0))
    l1_term = ad.reduce_mean(ad.absolute(ad.sub(target, reconstruction)))
    return alpha * ssim_term + (1.0 - alpha) * l1_term


def _x_grad(t):
    _, _, h, w = t.shape
    return ad.sub(ad.crop(t, 0, h, 1, w), ad.crop(t, 0, h, 0, w - 1))


def _y_grad(t):
    _, _, h, w = t.shape
    return ad.sub(ad.crop(t, 1, h, 0, w), ad.crop(t, 0, h - 1, 0, w))


def smoothness_loss(disparity, image):
    """Edge-aware first-order penalty: mean |dd| * exp(-mean_c |dI|), summed
    over the two gradient directions."""
    wx = ad.exp(-ad.reduce_mean(ad.absolute(_x_grad(image)), axes=(1,)))
    wy = ad.exp(-ad.reduce_mean(ad.absolute(_y_grad(image)), axes=(1,)))
    loss_x = ad.reduce_mean(ad.mul(ad.absolute(_x_grad(disparity)), wx))
    loss_y = ad.reduce_mean(ad.mul(ad.absolute(_y_grad(disparity)), wy))
    return ad.add(loss_x, loss_y)


def lr_consistency_loss(disp_left, disp_right):
    """Mean projection mismatch, averaged over the two eyes."""
    right_in_left = ad.grid_sample_bilinear(disp_right, ad.scale(disp_left, -1.0))
    left_in_right = ad.grid_sample_bilinear(disp_left, disp_right)
    term_left = ad.reduce_mean(ad.absolute(ad.sub(disp_left, right_in_left)))
    term_right = ad.reduce_mean(ad.absolute(ad.sub(disp_right, left_in_right)))
    return (term_left + term_right) * 0.5


def occlusion_reg(disp):
    return ad.reduce_mean(ad.absolute(disp))


def image_pyramid(image, scales=4):
    """Image at full resolution plus 2x2-average-pooled halvings."""
    out = [image]
    for _ in range(scales - 1):
        out.append(ad.avg_pool(out[-1], 2, 2))
    return out


def total_loss(left_set, right_set, sample, weights=None):
    """Sum over scales of
    factor_s * (appearance + w_sm*smoothness + w_lr*consistency + w_occ*occlusion),
    each term averaged over the two eyes. A scale or term whose weight is 0 is
    not built; appearance has no weight and is always built."""
    weights = weights if weights is not None else LossWeights()
    left_images = image_pyramid(sample.left)
    right_images = image_pyramid(sample.right)
    per_scale = []
    for s, factor in enumerate(weights.scale_factors):
        if not factor:
            continue
        d_l, d_r = left_set.maps[s], right_set.maps[s]
        i_l, i_r = left_images[s], right_images[s]
        app_l = appearance_loss(i_l, reconstruct(i_r, d_l, "left"), weights)
        app_r = appearance_loss(i_r, reconstruct(i_l, d_r, "right"), weights)
        terms = [(app_l + app_r) * 0.5]
        if weights.smoothness:
            sm = (smoothness_loss(d_l, i_l) + smoothness_loss(d_r, i_r)) * 0.5
            terms.append(sm * weights.smoothness)
        if weights.lr_consistency:
            terms.append(lr_consistency_loss(d_l, d_r) * weights.lr_consistency)
        if weights.occlusion:
            occ = (occlusion_reg(d_l) + occlusion_reg(d_r)) * 0.5
            terms.append(occ * weights.occlusion)
        per_scale.append(sum(terms[1:], terms[0]) * factor)
    return sum(per_scale[1:], per_scale[0]) if per_scale else ad.scalar(0.0)
