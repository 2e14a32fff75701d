"""View-synthesis training objective.

Built from engine ops so gradients reach the network: SSIM+L1 appearance
matching against bilinear reconstructions, edge-aware disparity smoothness
(its edge weights depend on the image alone and are numpy constants),
left-right disparity consistency, and occlusion regularization, combined over
4 scales with geometric per-scale factors. Disparities are in
normalized-width units throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2
SSIM_SHARE = 0.85  # of the appearance term; L1 takes the rest (Monodepth's blend)
MIN_EXTENT = 24  # of a training input: the 3x3 SSIM window needs 3 px at scale 3 (1/8)


@dataclass
class LossWeights:
    """Term weights and per-scale factors of one training stage; the defaults
    are Monodepth's, and a weight or factor of 0 leaves that term or scale
    out of the graph. Left-right consistency always has weight 1."""

    smoothness: float = 0.1
    occlusion: float = 0.01
    scale_factors: tuple = (1.0, 0.5, 0.25, 0.125)


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
    mu_xx, mu_yy, mu_xy = ad.mul(mu_x, mu_x), ad.mul(mu_y, mu_y), ad.mul(mu_x, mu_y)
    sigma_x = ad.avg_pool(ad.mul(x, x), 3, 1) - mu_xx
    sigma_y = ad.avg_pool(ad.mul(y, y), 3, 1) - mu_yy
    sigma_xy = ad.avg_pool(ad.mul(x, y), 3, 1) - mu_xy
    num = (2.0 * mu_xy + SSIM_C1) * (2.0 * sigma_xy + SSIM_C2)
    den = (mu_xx + mu_yy + SSIM_C1) * (sigma_x + sigma_y + SSIM_C2)
    return ad.div(num, den)


def appearance_loss(target, reconstruction):
    ssim_term = ad.reduce_mean(ad.clamp01((1.0 - ssim(target, reconstruction)) * 0.5))
    l1_term = ad.reduce_mean(ad.absolute(ad.sub(target, reconstruction)))
    return SSIM_SHARE * ssim_term + (1.0 - SSIM_SHARE) * l1_term


def _x_grad(t):
    _, _, h, w = t.shape
    return ad.sub(ad.crop(t, 0, h, 1, w), ad.crop(t, 0, h, 0, w - 1))


def _y_grad(t):
    _, _, h, w = t.shape
    return ad.sub(ad.crop(t, 1, h, 0, w), ad.crop(t, 0, h - 1, 0, w))


def edge_weight(image, axis):
    """exp(-mean_c |dI|) along `axis` (3 for x, 2 for y) of an image Tensor:
    a constant, since no gradient flows into the image."""
    return ad.Tensor(np.exp(-np.abs(np.diff(image.values, axis=axis)).mean(axis=1, keepdims=True)))


def smoothness_loss(disparity, image):
    """Edge-aware first-order penalty: mean |dd| * exp(-mean_c |dI|), summed
    over the two gradient directions."""
    loss_x = ad.reduce_mean(ad.mul(ad.absolute(_x_grad(disparity)), edge_weight(image, 3)))
    loss_y = ad.reduce_mean(ad.mul(ad.absolute(_y_grad(disparity)), edge_weight(image, 2)))
    return ad.add(loss_x, loss_y)


def lr_consistency_loss(disp_left, disp_right):
    """Mean projection mismatch, averaged over the two eyes."""
    right_in_left = reconstruct(disp_right, disp_left, "left")
    left_in_right = reconstruct(disp_left, disp_right, "right")
    term_left = ad.reduce_mean(ad.absolute(ad.sub(disp_left, right_in_left)))
    term_right = ad.reduce_mean(ad.absolute(ad.sub(disp_right, left_in_right)))
    return (term_left + term_right) * 0.5


def occlusion_reg(disp):
    """Mean disparity; disparities are d_max * sigmoid, so never negative."""
    return ad.reduce_mean(disp)


def image_pyramid(image):
    """Image at full resolution plus three 2x2-average-pooled halvings."""
    out = [image]
    for _ in range(3):
        out.append(ad.avg_pool(out[-1], 2, 2))
    return out


def total_loss(left_set, right_set, left, right, weights):
    """Sum over scales of
    factor_s * (appearance + w_sm*smoothness + consistency + w_occ*occlusion),
    each term averaged over the two eyes. A scale or term whose weight is 0 is
    not built, but every stage keeps scale 0; appearance and consistency have
    no weight and are always built. `left` and `right` are the (N, 3, H, W)
    image Tensors the two sets were predicted from."""
    left_images = image_pyramid(left)
    right_images = image_pyramid(right)
    per_scale = []
    for s, factor in enumerate(weights.scale_factors):
        if not factor:
            continue
        d_l, d_r = left_set.maps[s], right_set.maps[s]
        i_l, i_r = left_images[s], right_images[s]
        app_l = appearance_loss(i_l, reconstruct(i_r, d_l, "left"))
        app_r = appearance_loss(i_r, reconstruct(i_l, d_r, "right"))
        terms = [(app_l + app_r) * 0.5]
        if weights.smoothness:
            sm = (smoothness_loss(d_l, i_l) + smoothness_loss(d_r, i_r)) * 0.5
            terms.append(sm * weights.smoothness)
        terms.append(lr_consistency_loss(d_l, d_r))
        if weights.occlusion:
            occ = (occlusion_reg(d_l) + occlusion_reg(d_r)) * 0.5
            terms.append(occ * weights.occlusion)
        per_scale.append(sum(terms[1:], terms[0]) * factor)
    return sum(per_scale[1:], per_scale[0])
