"""View-synthesis training objective.

All terms are built from engine ops so gradients reach the network: SSIM+L1
appearance matching against bilinear reconstructions, edge-aware disparity
smoothness, left-right disparity consistency, and occlusion regularization,
combined over 4 scales with geometric per-scale factors. Disparities are in
normalized-width units throughout; depth conversion expects pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2
DISP_EPS = 1e-6


@dataclass
class StereoSample:
    """Rectified pair with calibration; gt_disparity (pixels) is only for
    evaluation and never enters the loss."""

    left: ad.Tensor
    right: ad.Tensor
    baseline: float
    focal: float
    gt_disparity: ad.Tensor | None = None

    def __post_init__(self):
        if self.left.shape != self.right.shape:
            raise ad.ShapeError(f"stereo images differ: {self.left.shape} vs {self.right.shape}")
        if self.baseline <= 0 or self.focal <= 0:
            raise ValueError(f"baseline and focal must be positive, got {self.baseline}, {self.focal}")


@dataclass
class LossWeights:
    alpha_ssim: float = 0.85
    smoothness: float = 0.1
    lr_consistency: float = 1.0
    occlusion: float = 0.01
    scale_factors: tuple = (1.0, 0.5, 0.25, 0.125)


@dataclass
class LossTerms:
    """Term toggles; the fine-tune stage drops smoothness and occlusion."""

    appearance: bool = True
    smoothness: bool = True
    lr_consistency: bool = True
    occlusion: bool = True


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


def total_loss(left_set, right_set, sample, weights=None, active_scales=(0, 1, 2, 3), terms=None):
    """Staged objective: sum over active scales of
    factor_s * (appearance + w_sm*smoothness + w_lr*consistency + w_occ*occlusion),
    each term averaged over the two eyes."""
    scales = sorted(set(active_scales))
    if not scales:
        raise ValueError("at least one scale must be active")
    if any(s not in (0, 1, 2, 3) for s in scales):
        raise ValueError(f"scales must come from 0..3, got {active_scales}")
    weights = weights if weights is not None else LossWeights()
    terms = terms if terms is not None else LossTerms()

    left_images = image_pyramid(sample.left)
    right_images = image_pyramid(sample.right)
    total = None
    for s in scales:
        d_l, d_r = left_set.maps[s], right_set.maps[s]
        i_l, i_r = left_images[s], right_images[s]
        acc = None
        if terms.appearance:
            app_l = appearance_loss(i_l, reconstruct(i_r, d_l, "left"), weights)
            app_r = appearance_loss(i_r, reconstruct(i_l, d_r, "right"), weights)
            acc = (app_l + app_r) * 0.5
        if terms.smoothness:
            sm = (smoothness_loss(d_l, i_l) + smoothness_loss(d_r, i_r)) * 0.5
            piece = sm * weights.smoothness
            acc = piece if acc is None else acc + piece
        if terms.lr_consistency:
            piece = lr_consistency_loss(d_l, d_r) * weights.lr_consistency
            acc = piece if acc is None else acc + piece
        if terms.occlusion:
            occ = (occlusion_reg(d_l) + occlusion_reg(d_r)) * 0.5
            piece = occ * weights.occlusion
            acc = piece if acc is None else acc + piece
        if acc is None:
            continue
        piece = acc * weights.scale_factors[s]
        total = piece if total is None else total + piece
    return total if total is not None else ad.scalar(0.0)


def disparity_to_depth(disp, baseline, focal):
    """depth = b*f / d for disparity in pixels, clamped at 1e-6 px."""
    return (baseline * focal) / ad.clamp(disp, DISP_EPS, np.inf)
