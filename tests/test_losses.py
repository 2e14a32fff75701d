"""Loss-term oracles: closed forms on constants/ramps plus gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_gradients
from fusiondepth import autodiff as ad
from fusiondepth import losses as ls
from fusiondepth.network import ConfigError, DisparitySet


def const_image(value, shape=(1, 3, 8, 8)):
    return ad.Tensor(np.full(shape, value))


def rand_image(seed, shape=(1, 3, 8, 8)):
    return ad.Tensor(np.random.default_rng(seed).uniform(0, 1, shape))


class TestStereoSample:
    def test_extent_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError):
            ls.StereoSample(const_image(0.0), const_image(0.0, (1, 3, 8, 16)), 0.5, 480.0)

    def test_calibration_positive(self):
        with pytest.raises(ValueError):
            ls.StereoSample(const_image(0.0), const_image(0.0), -1.0, 480.0)


class TestReconstruct:
    def test_zero_disparity_identity(self):
        src = rand_image(0)
        out = ls.reconstruct(src, const_image(0.0, (1, 1, 8, 8)), "left")
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
            ls.reconstruct(rand_image(3), const_image(0.0, (1, 1, 8, 8)), "up")

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
        z = const_image(0.0, (1, 1, 8, 8))
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


def random_disparity_sets(seed, requires_grad=False, h=32, w=32):
    rng = np.random.default_rng(seed)
    sets = [[ad.Tensor(rng.uniform(0.01, 0.12, (1, 1, h >> s, w >> s)), requires_grad=requires_grad)
             for s in range(4)] for _ in range(2)]
    return DisparitySet(sets[0]), DisparitySet(sets[1])


def zero_disparity_sets(h=32, w=32):
    maps = [const_image(0.0, (1, 1, h >> s, w >> s)) for s in range(4)]
    return DisparitySet(list(maps)), DisparitySet([const_image(0.0, m.shape) for m in maps])


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
        with pytest.raises(ConfigError, match="4 scale factors"):
            ls.LossWeights(scale_factors=())

    def test_all_scale_factors_zero_gives_zero(self):
        left_set, right_set = random_disparity_sets(9)
        loss = ls.total_loss(left_set, right_set, self.sample(), ls.LossWeights(scale_factors=(0, 0, 0, 0)))
        assert loss.item() == 0.0

    def test_disabled_terms_contribute_nothing(self):
        left_set, right_set = random_disparity_sets(9, requires_grad=True)
        sample = self.sample()
        fine_tune = ls.LossWeights(smoothness=0.0, occlusion=0.0)
        loss = ls.total_loss(left_set, right_set, sample, fine_tune)
        # smoothness is the only term that uses exp: a zero weight leaves it off the tape
        assert "exp" in tape_ops(ls.total_loss(left_set, right_set, sample))
        assert "exp" not in tape_ops(loss)
        # and the value matches assembling appearance and left-right by hand
        w = ls.LossWeights()
        manual = 0.0
        li = ls.image_pyramid(sample.left)
        ri = ls.image_pyramid(sample.right)
        for s in range(4):
            d_l, d_r = left_set.maps[s], right_set.maps[s]
            app = (
                ls.appearance_loss(li[s], ls.reconstruct(ri[s], d_l, "left"), w).item()
                + ls.appearance_loss(ri[s], ls.reconstruct(li[s], d_r, "right"), w).item()
            ) / 2
            lr = ls.lr_consistency_loss(d_l, d_r).item() * w.lr_consistency
            manual += w.scale_factors[s] * (app + lr)
        assert loss.item() == pytest.approx(manual, rel=1e-12)

    def test_finite_and_positive_on_random_maps(self):
        rng = np.random.default_rng(10)
        maps_l = [ad.Tensor(rng.uniform(0.01, 0.25, (1, 1, 32 >> s, 32 >> s))) for s in range(4)]
        maps_r = [ad.Tensor(rng.uniform(0.01, 0.25, (1, 1, 32 >> s, 32 >> s))) for s in range(4)]
        loss = ls.total_loss(DisparitySet(maps_l), DisparitySet(maps_r), self.sample(11))
        assert np.isfinite(loss.item()) and loss.item() > 0.0

    def test_scale_subset_sums_only_those_scales(self):
        sample = self.sample(13)
        sets = random_disparity_sets(12)
        all_scales = ls.total_loss(*sets, sample).item()
        f = ls.LossWeights().scale_factors
        one_hot = [tuple(f[t] if t == s else 0.0 for t in range(4)) for s in range(4)]
        per_scale = [ls.total_loss(*sets, sample, ls.LossWeights(scale_factors=fs)).item() for fs in one_hot]
        assert all_scales == pytest.approx(sum(per_scale), rel=1e-12)


class TestLossWeights:
    @pytest.mark.parametrize("kwargs, match", [
        (dict(scale_factors=(1.0, 0.5)), "4 scale factors"),
        (dict(scale_factors=(1.0, 0.5, 0.25, 0.125, 0.0625)), "4 scale factors"),
        (dict(scale_factors=(1.0, -0.5, 0.25, 0.125)), "scale factors must be >= 0"),
        (dict(smoothness=-1.0), "smoothness weight must be >= 0"),
        (dict(lr_consistency=-0.1), "lr_consistency weight must be >= 0"),
        (dict(occlusion=float("nan")), "occlusion weight must be >= 0"),
        (dict(alpha_ssim=1.5), "alpha_ssim must lie in"),
        (dict(alpha_ssim=-0.1), "alpha_ssim must lie in"),
    ], ids=["two_factors", "five_factors", "negative_factor", "negative_smoothness",
            "negative_lr_consistency", "nan_occlusion", "alpha_above_1", "alpha_below_0"])
    def test_invalid_rejected(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            ls.LossWeights(**kwargs)

    def test_zero_weights_and_alpha_bounds_accepted(self):
        for alpha in (0.0, 1.0):
            w = ls.LossWeights(alpha_ssim=alpha, smoothness=0, lr_consistency=0, occlusion=0,
                               scale_factors=[0, 0, 0, 1])
            assert w.scale_factors == (0.0, 0.0, 0.0, 1.0)
