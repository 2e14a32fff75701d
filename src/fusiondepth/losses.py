"""View-synthesis training objective.

Built from engine ops so gradients reach the network: SSIM+L1 appearance
matching against bilinear reconstructions, edge-aware smoothness of the
disparity's ad.diff (its edge weights depend on the image alone and are numpy
constants), left-right disparity consistency, and occlusion regularization,
combined over 4 scales with geometric per-scale factors. Disparities are in
normalized-width units throughout. The loss is one graph over a stereo batch:
ad.grid_sample_bilinear reconstructs each eye from the other (ad.swap_eyes)
by its disparity times its sign, and every term is a mean over the batch.
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


def signed_offsets(disparity):
    """The warp offsets of a stereo batch's (2B, 1, H, W) disparities: each
    map times its eye's sign, -1 for the B left images and +1 for the B right."""
    sign = np.ones(disparity.shape)
    sign[:disparity.shape[0] // 2] = -1.0
    return ad.mul(disparity, ad.Tensor(sign))


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


def edge_weight(image, axis):
    """exp(-mean_c |dI|) along `axis` (3 for x, 2 for y) of an image Tensor:
    a constant, since no gradient flows into the image."""
    return ad.Tensor(np.exp(-np.abs(np.diff(image.values, axis=axis)).mean(axis=1, keepdims=True)))


def smoothness_loss(disparity, image):
    """Edge-aware first-order penalty: mean |dd| * exp(-mean_c |dI|), summed
    over the two gradient directions."""
    loss_x = ad.reduce_mean(ad.mul(ad.absolute(ad.diff(disparity, 3)), edge_weight(image, 3)))
    loss_y = ad.reduce_mean(ad.mul(ad.absolute(ad.diff(disparity, 2)), edge_weight(image, 2)))
    return ad.add(loss_x, loss_y)


def lr_consistency_loss(disparity, offsets):
    """Mean mismatch between each eye's disparity and the other eye's, warped
    into it by `offsets` (signed_offsets of `disparity`)."""
    projected = ad.grid_sample_bilinear(ad.swap_eyes(disparity), offsets)
    return ad.reduce_mean(ad.absolute(ad.sub(disparity, projected)))


def occlusion_reg(disp):
    """Mean disparity; disparities are d_max * sigmoid, so never negative."""
    return ad.reduce_mean(disp)


def image_pyramid(image):
    """Image at full resolution plus three 2x2-average-pooled halvings."""
    out = [image]
    for _ in range(3):
        out.append(ad.avg_pool(out[-1], 2, 2))
    return out


def total_loss(disparities, images, weights):
    """Sum over scales of
    factor_s * (appearance + w_sm*smoothness + consistency + w_occ*occlusion),
    each term a mean over the stereo batch `images`, a (2B, 3, H, W) Tensor of
    B left images then B right, whose DisparitySet `disparities` is. A scale or
    term whose weight is 0 is not built, but every stage keeps scale 0;
    appearance and consistency have no weight and are always built."""
    pyramid = image_pyramid(images)
    per_scale = []
    for s, factor in enumerate(weights.scale_factors):
        if not factor:
            continue
        d, i = disparities.maps[s], pyramid[s]
        offsets = signed_offsets(d)
        terms = [appearance_loss(i, ad.grid_sample_bilinear(ad.swap_eyes(i), offsets))]
        if weights.smoothness:
            terms.append(smoothness_loss(d, i) * weights.smoothness)
        terms.append(lr_consistency_loss(d, offsets))
        if weights.occlusion:
            terms.append(occlusion_reg(d) * weights.occlusion)
        per_scale.append(sum(terms[1:], terms[0]) * factor)
    return sum(per_scale[1:], per_scale[0])
