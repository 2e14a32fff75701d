"""Loss-term oracles: closed forms on constants/ramps plus gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_gradients
from fusiondepth import autodiff as ad
from fusiondepth import losses as ls
from fusiondepth.network import DisparitySet


def const_image(value, shape=(1, 3, 8, 8)):
    return ad.Tensor(np.full(shape, value))


def rand_image(seed, shape=(1, 3, 8, 8)):
    return ad.Tensor(np.random.default_rng(seed).uniform(0, 1, shape))


class TestStereoSample:
    def test_extent_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError):
            ls.StereoSample(ad.zeros((1, 3, 8, 8)), ad.zeros((1, 3, 8, 16)), 0.5, 480.0)

    def test_calibration_positive(self):
        with pytest.raises(ValueError):
            ls.StereoSample(ad.zeros((1, 3, 8, 8)), ad.zeros((1, 3, 8, 8)), -1.0, 480.0)


class TestReconstruct:
    def test_zero_disparity_identity(self):
        src = rand_image(0)
        out = ls.reconstruct(src, ad.zeros((1, 1, 8, 8)), "left")
        assert np.array_equal(out.values, src.values)

    def test_four_pixel_shift_oracle(self):
        # carve left/right from one canvas so right(j) = left(j + 4) exactly
        rng = np.random.default_rng(1)
        canvas = rng.uniform(0, 1, (1, 3, 8, 20))
        left = ad.Tensor(canvas[:, :, :, 0:16])
        right = ad.Tensor(canvas[:, :, :, 4:20])
        disparity = ad.Tensor(np.full((1, 1, 8, 16), 4.0 / 16.0))
        recon = ls.reconstruct(right, disparity, "left")
        interior = slice(4, 16)
        err = np.abs(recon.values[:, :, :, interior] - left.values[:, :, :, interior])
        assert err.max() < 1e-10

    def test_direction_sign(self):
        rng = np.random.default_rng(2)
        canvas = rng.uniform(0, 1, (1, 3, 8, 20))
        left = ad.Tensor(canvas[:, :, :, 0:16])
        right = ad.Tensor(canvas[:, :, :, 4:20])
        disparity = ad.Tensor(np.full((1, 1, 8, 16), 4.0 / 16.0))
        recon = ls.reconstruct(left, disparity, "right")
        err = np.abs(recon.values[:, :, :, :12] - right.values[:, :, :, :12])
        assert err.max() < 1e-10

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            ls.reconstruct(rand_image(3), ad.zeros((1, 1, 8, 8)), "up")

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_reaches_disparity(self, seed):
        rng = np.random.default_rng(seed)
        src = rand_image(seed + 10)
        disp = ad.Tensor(rng.uniform(0.04, 0.11, (1, 1, 8, 8)), requires_grad=True)

        def build():
            return ad.reduce_mean(ls.reconstruct(src, disp, "left"))

        check_gradients(build, [disp], tol=1e-3)


class TestAppearance:
    def test_identical_images_zero(self):
        img = rand_image(4)
        assert ls.appearance_loss(img, img, ls.LossWeights()).item() == 0.0

    def test_ssim_self_identity(self):
        img = rand_image(5)
        assert np.allclose(ls.ssim(img, img).values, 1.0)

    def test_constant_pair_closed_form(self):
        w = ls.LossWeights()
        x, y = 0.2, 0.7
        a = const_image(x)
        b = const_image(y)
        # hand evaluation: sigmas vanish on constants
        ssim_val = ((2 * x * y + ls.SSIM_C1) * ls.SSIM_C2) / ((x * x + y * y + ls.SSIM_C1) * ls.SSIM_C2)
        expected = w.alpha_ssim * (1 - ssim_val) / 2 + (1 - w.alpha_ssim) * 0.5
        assert ls.appearance_loss(a, b, w).item() == pytest.approx(expected, abs=1e-12)
        l1_only = ls.appearance_loss(a, b, ls.LossWeights(alpha_ssim=0.0)).item()
        assert l1_only == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bounded_for_unit_range_images(self, seed):
        rng = np.random.default_rng(seed)
        a = ad.Tensor(rng.uniform(0, 1, (1, 3, 6, 6)))
        b = ad.Tensor(rng.uniform(0, 1, (1, 3, 6, 6)))
        val = ls.appearance_loss(a, b, ls.LossWeights()).item()
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


class TestLRConsistency:
    def test_zero_maps(self):
        z = ad.zeros((1, 1, 8, 8))
        assert ls.lr_consistency_loss(z, z).item() == 0.0

    def test_consistent_constant_maps(self):
        c = const_image(0.05, (1, 1, 8, 8))
        assert ls.lr_consistency_loss(c, c).item() == 0.0

    def test_constant_offset_delta(self):
        c, delta = 0.04, 0.02
        left = const_image(c, (1, 1, 8, 8))
        right = const_image(c + delta, (1, 1, 8, 8))
        assert ls.lr_consistency_loss(left, right).item() == pytest.approx(delta, abs=1e-12)


class TestOcclusionReg:
    def test_zero_map(self):
        assert ls.occlusion_reg(ad.zeros((1, 1, 4, 4))).item() == 0.0

    def test_constant_map(self):
        assert ls.occlusion_reg(const_image(0.07, (1, 1, 4, 4))).item() == pytest.approx(0.07)

    def test_homogeneous_scaling(self):
        d = rand_image(7, (1, 1, 4, 4))
        one = ls.occlusion_reg(d).item()
        two = ls.occlusion_reg(ad.scale(d, 2.0)).item()
        assert two == pytest.approx(2 * one, rel=1e-12)


def zero_disparity_sets(h=32, w=32):
    maps = [ad.zeros((1, 1, h >> s, w >> s)) for s in range(4)]
    return DisparitySet(list(maps)), DisparitySet([ad.zeros(m.shape) for m in maps])


class TestTotalLoss:
    def sample(self, seed=8, h=32, w=32):
        img = rand_image(seed, (1, 3, h, w))
        return ls.StereoSample(img, ad.Tensor(img.values.copy()), 0.5, 480.0)

    def test_perfect_reconstruction_zero(self):
        left_set, right_set = zero_disparity_sets()
        weights = ls.LossWeights(smoothness=0.0, lr_consistency=0.0, occlusion=0.0)
        loss = ls.total_loss(left_set, right_set, self.sample(), weights)
        assert loss.item() == 0.0

    def test_empty_scales_rejected(self):
        left_set, right_set = zero_disparity_sets()
        with pytest.raises(ValueError):
            ls.total_loss(left_set, right_set, self.sample(), active_scales=())

    def test_disabled_terms_contribute_nothing(self):
        rng = np.random.default_rng(9)
        maps = [ad.Tensor(rng.uniform(0.01, 0.12, (1, 1, 32 >> s, 32 >> s))) for s in range(4)]
        maps_r = [ad.Tensor(rng.uniform(0.01, 0.12, (1, 1, 32 >> s, 32 >> s))) for s in range(4)]
        left_set, right_set = DisparitySet(maps), DisparitySet(maps_r)
        sample = self.sample()
        fine_tune = ls.LossTerms(smoothness=False, occlusion=False)
        small = ls.total_loss(left_set, right_set, sample, ls.LossWeights(smoothness=0.1), terms=fine_tune)
        huge = ls.total_loss(left_set, right_set, sample, ls.LossWeights(smoothness=1e6), terms=fine_tune)
        assert small.item() == huge.item()
        # and matches assembling the two active terms by hand
        w = ls.LossWeights()
        manual = 0.0
        li = ls.image_pyramid(sample.left)
        ri = ls.image_pyramid(sample.right)
        for s in range(4):
            app = (
                ls.appearance_loss(li[s], ls.reconstruct(ri[s], maps[s], "left"), w).item()
                + ls.appearance_loss(ri[s], ls.reconstruct(li[s], maps_r[s], "right"), w).item()
            ) / 2
            lr = ls.lr_consistency_loss(maps[s], maps_r[s]).item() * w.lr_consistency
            manual += w.scale_factors[s] * (app + lr)
        assert small.item() == pytest.approx(manual, rel=1e-12)

    def test_finite_and_positive_on_random_maps(self):
        rng = np.random.default_rng(10)
        maps_l = [ad.Tensor(rng.uniform(0.01, 0.25, (1, 1, 32 >> s, 32 >> s))) for s in range(4)]
        maps_r = [ad.Tensor(rng.uniform(0.01, 0.25, (1, 1, 32 >> s, 32 >> s))) for s in range(4)]
        loss = ls.total_loss(DisparitySet(maps_l), DisparitySet(maps_r), self.sample(11))
        assert np.isfinite(loss.item()) and loss.item() > 0.0

    def test_scale_subset_sums_only_those_scales(self):
        rng = np.random.default_rng(12)
        maps_l = [ad.Tensor(rng.uniform(0.01, 0.12, (1, 1, 32 >> s, 32 >> s))) for s in range(4)]
        maps_r = [ad.Tensor(rng.uniform(0.01, 0.12, (1, 1, 32 >> s, 32 >> s))) for s in range(4)]
        sample = self.sample(13)
        sets = DisparitySet(maps_l), DisparitySet(maps_r)
        all_scales = ls.total_loss(*sets, sample).item()
        per_scale = [ls.total_loss(*sets, sample, active_scales=(s,)).item() for s in range(4)]
        assert all_scales == pytest.approx(sum(per_scale), rel=1e-12)


class TestDepthConversion:
    def test_direct_formula(self):
        d = ad.tensor(np.full((1, 1, 1, 1), 2.0))
        assert ls.disparity_to_depth(d, 1.0, 100.0).item() == 50.0
        d = ad.tensor(np.full((1, 1, 1, 1), 36.0))
        assert ls.disparity_to_depth(d, 0.5, 720.0).item() == 10.0

    def test_doubling_disparity_halves_depth(self):
        d1 = ls.disparity_to_depth(ad.scalar(3.0), 0.5, 480.0).item()
        d2 = ls.disparity_to_depth(ad.scalar(6.0), 0.5, 480.0).item()
        assert d2 == pytest.approx(d1 / 2, rel=1e-15)

    def test_gradient_through_conversion(self):
        rng = np.random.default_rng(14)
        disp = ad.Tensor(rng.uniform(2.0, 8.0, (1, 1, 3, 3)), requires_grad=True)

        def build():
            return ad.reduce_mean(ls.disparity_to_depth(disp, 0.5, 480.0))

        check_gradients(build, [disp], tol=1e-4)
