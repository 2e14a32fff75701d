"""Loss-term oracles: closed forms on constants/ramps plus gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_gradients
from fusiondepth import autodiff as ad
from fusiondepth import losses as ls
from fusiondepth.network import ArchConfig, DepthNet, DisparitySet, image_batch
from fusiondepth.scenes import random_scene, render_stereo
from fusiondepth.training import TrainConfig, stage_plan


def const_image(value, shape=(1, 3, 8, 8)):
    return ad.Tensor(np.full(shape, value))


def rand_image(seed, shape=(1, 3, 8, 8)):
    return ad.Tensor(np.random.default_rng(seed).uniform(0, 1, shape))


class TestReconstruct:
    def test_zero_disparity_identity(self):
        src = rand_image(0)
        out = ad.grid_sample_bilinear(src, const_image(0.0, (1, 1, 8, 8)))
        assert np.array_equal(out.values, src.values)

    def test_four_pixel_shift_oracle(self):
        # carve left/right from one canvas so right(j) = left(j + 4) exactly
        rng = np.random.default_rng(1)
        canvas = rng.uniform(0, 1, (1, 3, 8, 20))
        left = ad.Tensor(canvas[:, :, :, 0:16])
        right = ad.Tensor(canvas[:, :, :, 4:20])
        disparity = ad.Tensor(np.full((1, 1, 8, 16), 4.0 / 16.0))
        recon = ad.grid_sample_bilinear(right, ad.scale(disparity, -1.0))
        interior = slice(4, 16)
        err = np.abs(recon.values[:, :, :, interior] - left.values[:, :, :, interior])
        assert err.max() < 1e-10

    def test_direction_sign(self):
        rng = np.random.default_rng(2)
        canvas = rng.uniform(0, 1, (1, 3, 8, 20))
        left = ad.Tensor(canvas[:, :, :, 0:16])
        right = ad.Tensor(canvas[:, :, :, 4:20])
        disparity = ad.Tensor(np.full((1, 1, 8, 16), 4.0 / 16.0))
        recon = ad.grid_sample_bilinear(left, disparity)
        err = np.abs(recon.values[:, :, :, :12] - right.values[:, :, :, :12])
        assert err.max() < 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_reaches_disparity(self, seed):
        rng = np.random.default_rng(seed)
        src = rand_image(seed + 10)
        disp = ad.Tensor(rng.uniform(0.04, 0.11, (1, 1, 8, 8)), requires_grad=True)

        def build():
            return ad.reduce_mean(ad.grid_sample_bilinear(src, ad.scale(disp, -1.0)))

        check_gradients(build, [disp], tol=1e-3)


class TestAppearance:
    def test_identical_images_zero(self):
        img = rand_image(4)
        assert ls.appearance_loss(img, img).item() == 0.0

    def test_ssim_self_identity(self):
        img = rand_image(5)
        assert np.allclose(ls.ssim(img, img).values, 1.0)

    def test_constant_pair_closed_form(self):
        x, y = 0.2, 0.7
        a = const_image(x)
        b = const_image(y)
        # hand evaluation: sigmas vanish on constants
        ssim_val = ((2 * x * y + ls.SSIM_C1) * ls.SSIM_C2) / ((x * x + y * y + ls.SSIM_C1) * ls.SSIM_C2)
        loss = ls.appearance_loss(a, b).item()
        assert loss == pytest.approx(0.85 * (1 - ssim_val) / 2 + 0.15 * abs(x - y), abs=1e-12)
        # the L1 share: what the 0.85 SSIM share leaves is 0.15 * mean |a - b|
        l1 = (loss - 0.85 * (1 - ssim_val) / 2) / 0.15
        assert l1 == pytest.approx(0.5, abs=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bounded_for_unit_range_images(self, seed):
        rng = np.random.default_rng(seed)
        a = ad.Tensor(rng.uniform(0, 1, (1, 3, 6, 6)))
        b = ad.Tensor(rng.uniform(0, 1, (1, 3, 6, 6)))
        val = ls.appearance_loss(a, b).item()
        assert 0.0 <= val <= 1.0


class TestSmoothness:
    def test_constant_disparity_zero(self):
        disp = const_image(0.1, (1, 1, 8, 8))
        assert ls.smoothness_loss(disp, rand_image(6)).item() == 0.0

    def test_ramp_gives_mean_slope(self):
        slope = 0.25
        ramp = np.broadcast_to(np.arange(8.0) * slope, (1, 1, 8, 8)).copy()
        loss = ls.smoothness_loss(ad.Tensor(ramp), const_image(0.5))
        assert loss.item() == slope

    def test_image_edge_discounts_jump(self):
        disp = np.zeros((1, 1, 8, 8))
        disp[:, :, :, 4:] = 0.2
        flat = const_image(0.5)
        edged = np.full((1, 3, 8, 8), 0.5)
        edged[:, :, :, 4:] = 1.0  # strong edge collinear with the disparity jump
        loss_flat = ls.smoothness_loss(ad.Tensor(disp), flat).item()
        loss_edge = ls.smoothness_loss(ad.Tensor(disp), ad.Tensor(edged)).item()
        assert loss_edge < loss_flat

    @pytest.mark.parametrize("n, h, w", [(1, 5, 7), (2, 4, 6)])
    def test_edge_weights_match_loops(self, n, h, w):
        image = np.random.default_rng(n * h * w).uniform(0, 1, (n, 3, h, w))
        want_x, want_y = np.empty((n, 1, h, w - 1)), np.empty((n, 1, h - 1, w))
        for b in range(n):
            for i in range(h):
                for j in range(w):
                    if j + 1 < w:
                        want_x[b, 0, i, j] = np.exp(-sum(abs(image[b, c, i, j + 1] - image[b, c, i, j])
                                                         for c in range(3)) / 3)
                    if i + 1 < h:
                        want_y[b, 0, i, j] = np.exp(-sum(abs(image[b, c, i + 1, j] - image[b, c, i, j])
                                                         for c in range(3)) / 3)
        for axis, want in ((3, want_x), (2, want_y)):
            got = ls.edge_weight(ad.Tensor(image), axis)
            assert not got.requires_grad and got._parents == ()
            assert np.array_equal(got.values, want)


def lr_consistency(disparity):
    return ls.lr_consistency_loss(disparity, ls.signed_offsets(disparity))


class TestLRConsistency:
    """On (2, 1, H, W) pairs of a left then a right disparity map."""

    def test_zero_maps(self):
        assert lr_consistency(const_image(0.0, (2, 1, 8, 8))).item() == 0.0

    def test_consistent_constant_maps(self):
        assert lr_consistency(const_image(0.05, (2, 1, 8, 8))).item() == 0.0

    def test_constant_offset_delta(self):
        c, delta = 0.04, 0.02
        pair = ad.Tensor(np.concatenate([np.full((1, 1, 8, 8), c), np.full((1, 1, 8, 8), c + delta)]))
        assert lr_consistency(pair).item() == pytest.approx(delta, abs=1e-12)

    def test_offsets_are_signed_per_eye(self):
        pair = rand_image(14, (4, 1, 8, 8))
        offsets = ls.signed_offsets(pair).values
        assert np.array_equal(offsets[:2], -pair.values[:2]) and np.array_equal(offsets[2:], pair.values[2:])


class TestOcclusionReg:
    def test_zero_map(self):
        assert ls.occlusion_reg(const_image(0.0, (1, 1, 4, 4))).item() == 0.0

    def test_constant_map(self):
        assert ls.occlusion_reg(const_image(0.07, (1, 1, 4, 4))).item() == pytest.approx(0.07)

    def test_homogeneous_scaling(self):
        d = rand_image(7, (1, 1, 4, 4))
        one = ls.occlusion_reg(d).item()
        two = ls.occlusion_reg(ad.scale(d, 2.0)).item()
        assert two == pytest.approx(2 * one, rel=1e-12)


def tape_ops(loss):
    ops, stack = set(), [loss]
    while stack:
        node = stack.pop()
        ops.add(node._op)
        stack.extend(node._parents)
    return ops


def random_disparities(seed, requires_grad=False, h=32, w=32):
    """A DisparitySet of (2, 1, h, w) maps per scale: a left then a right eye."""
    rng = np.random.default_rng(seed)
    return DisparitySet([ad.Tensor(rng.uniform(0.01, 0.12, (2, 1, h >> s, w >> s)), requires_grad=requires_grad)
                         for s in range(4)])


def per_eye_loss(left_set, right_set, left, right, weights):
    """The oracle for ls.total_loss: each term built once per eye from that
    eye's DisparitySet and (N, 3, H, W) images, then averaged over the two."""
    def mean_abs_diff(a, b):
        return ad.reduce_mean(ad.absolute(ad.sub(a, b)))

    left_images, right_images = ls.image_pyramid(left), ls.image_pyramid(right)
    per_scale = []
    for s, factor in enumerate(weights.scale_factors):
        if not factor:
            continue
        d_l, d_r = left_set.maps[s], right_set.maps[s]
        i_l, i_r = left_images[s], right_images[s]
        app_l = ls.appearance_loss(i_l, ad.grid_sample_bilinear(i_r, ad.scale(d_l, -1.0)))
        app_r = ls.appearance_loss(i_r, ad.grid_sample_bilinear(i_l, d_r))
        terms = [(app_l + app_r) * 0.5]
        if weights.smoothness:
            sm = (ls.smoothness_loss(d_l, i_l) + ls.smoothness_loss(d_r, i_r)) * 0.5
            terms.append(sm * weights.smoothness)
        lr_l = mean_abs_diff(d_l, ad.grid_sample_bilinear(d_r, ad.scale(d_l, -1.0)))
        lr_r = mean_abs_diff(d_r, ad.grid_sample_bilinear(d_l, d_r))
        terms.append((lr_l + lr_r) * 0.5)
        if weights.occlusion:
            occ = (ls.occlusion_reg(d_l) + ls.occlusion_reg(d_r)) * 0.5
            terms.append(occ * weights.occlusion)
        per_scale.append(sum(terms[1:], terms[0]) * factor)
    return sum(per_scale[1:], per_scale[0])


class TestTotalLoss:
    """On a (2, 3, H, W) pair of two copies of one image and (2, 1, h, w) disparity pairs."""

    def images(self, seed=8, h=32, w=32):
        img = rand_image(seed, (1, 3, h, w)).values
        return ad.Tensor(np.concatenate([img, img]))

    def test_perfect_reconstruction_zero(self):
        zeros = DisparitySet([const_image(0.0, (2, 1, 32 >> s, 32 >> s)) for s in range(4)])
        weights = ls.LossWeights(smoothness=0.0, occlusion=0.0)
        loss = ls.total_loss(zeros, self.images(), weights)
        assert loss.item() == 0.0

    def test_disabled_terms_contribute_nothing(self):
        disparities = random_disparities(9, requires_grad=True)
        images = self.images()
        fine_tune = ls.LossWeights(smoothness=0.0, occlusion=0.0)
        loss = ls.total_loss(disparities, images, fine_tune)
        # smoothness is the only term that differences: a zero weight leaves it off the tape
        assert "diff" in tape_ops(ls.total_loss(disparities, images, ls.LossWeights()))
        assert "diff" not in tape_ops(loss)
        # and the value matches assembling appearance and left-right by hand
        w = ls.LossWeights()
        manual = 0.0
        pyramid = ls.image_pyramid(images)
        for s in range(4):
            d = disparities.maps[s]
            offsets = ls.signed_offsets(d)
            app = ls.appearance_loss(pyramid[s], ad.grid_sample_bilinear(ad.swap_eyes(pyramid[s]), offsets)).item()
            manual += w.scale_factors[s] * (app + ls.lr_consistency_loss(d, offsets).item())
        assert loss.item() == pytest.approx(manual, rel=1e-12)

    def test_finite_and_positive_on_random_maps(self):
        rng = np.random.default_rng(10)
        maps = [ad.Tensor(rng.uniform(0.01, 0.25, (2, 1, 32 >> s, 32 >> s))) for s in range(4)]
        loss = ls.total_loss(DisparitySet(maps), self.images(11), ls.LossWeights())
        assert np.isfinite(loss.item()) and loss.item() > 0.0

    def test_scale_subset_sums_only_those_scales(self):
        images = self.images(13)
        disparities = random_disparities(12)
        all_scales = ls.total_loss(disparities, images, ls.LossWeights()).item()
        f = ls.LossWeights().scale_factors
        one_hot = [tuple(f[t] if t == s else 0.0 for t in range(4)) for s in range(4)]
        per_scale = [ls.total_loss(disparities, images, ls.LossWeights(scale_factors=fs)).item() for fs in one_hot]
        assert all_scales == pytest.approx(sum(per_scale), rel=1e-12)


class TestStackedMatchesPerEye:
    """The loss over a forward of the stacked pair against per_eye_loss over
    a forward of each eye alone, for each arch and stage."""

    @pytest.mark.parametrize("stage", [1, 2, 3])
    @pytest.mark.parametrize("arch", [{}, {"coordconv": False}, {"fusion": False}, {"refinement": False}],
                             ids=["default", "no_coordconv", "no_fusion", "no_refinement"])
    def test_loss_and_leaf_gradients(self, arch, stage):
        scene = render_stereo(random_scene(5, width=32, height=32, two_layer=True))
        weights = stage_plan(TrainConfig())[stage - 1][1]
        net = DepthNet(ArchConfig(**arch), seed=2)
        left, right = image_batch(scene.left[None]), image_batch(scene.right[None])
        pair = image_batch(np.stack([scene.left, scene.right]))
        loss = ls.total_loss(net.forward(pair), pair, weights)
        want = per_eye_loss(net.forward(left), net.forward(right), left, right, weights)
        assert loss.item() == pytest.approx(want.item(), rel=1e-12)
        grads, want_grads = ad.backward(loss), ad.backward(want)
        assert grads.keys() == want_grads.keys()
        for t, g in want_grads.items():
            assert np.linalg.norm(grads[t] - g) <= 1e-12 * np.linalg.norm(g)
