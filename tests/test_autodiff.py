"""Engine tests: frozen-value examples plus finite-difference oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_gradients, numeric_grad, analytic_grad, relative_error
from fusiondepth import autodiff as ad


def rand(rng, shape, lo=-1.0, hi=1.0, grad=True):
    return ad.Tensor(rng.uniform(lo, hi, size=shape), requires_grad=grad)


def total(t):
    """The sum of every entry, as the mean scaled by the entry count."""
    return ad.scale(ad.reduce_mean(t), t.values.size)


class TestTensorBasics:
    def test_rank_enforced(self):
        with pytest.raises(ad.ShapeError):
            ad.Tensor([1.0, 2.0])

    def test_values_are_float64(self):
        t = ad.Tensor([[[[1]]]])
        assert t.values.dtype == np.float64

    def test_item_requires_single_element(self):
        with pytest.raises(ad.ShapeError):
            ad.Tensor(np.zeros((1, 1, 2, 2))).item()
        assert ad.scalar(2.5).item() == 2.5

    def test_finite_error_on_nan(self):
        bad = ad.Tensor(np.full((1, 1, 1, 1), -1.0))
        with pytest.raises(ad.FiniteError):
            ad.log(bad)


class TestConv2d:
    def test_all_ones_center_is_nine(self):
        x = ad.Tensor(np.ones((1, 1, 3, 3)))
        w = ad.Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
        out = ad.conv2d(x, w)
        assert out.values[0, 0, 1, 1] == 9.0
        assert out.values[0, 0, 0, 0] == 4.0  # corner sees a 2x2 overlap

    def test_stride2_shape_law(self):
        x = ad.Tensor(np.zeros((1, 1, 4, 4)))
        w = ad.Tensor(np.zeros((5, 1, 3, 3)))
        out = ad.conv2d(x, w, stride=2)
        assert out.shape == (1, 5, 2, 2)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.conv2d(ad.Tensor(np.zeros((1, 2, 4, 4))), ad.Tensor(np.zeros((1, 3, 3, 3))))

    def test_even_kernel_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.conv2d(ad.Tensor(np.zeros((1, 1, 4, 4))), ad.Tensor(np.zeros((1, 1, 2, 2))))

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_gradients(self, seed, stride):
        rng = np.random.default_rng(seed)
        x = rand(rng, (1, 2, 5, 5))
        w = rand(rng, (3, 2, 3, 3))
        b = rand(rng, (1, 3, 1, 1))
        proj = ad.Tensor(rng.uniform(-1, 1, size=(1, 3, (5 + 2 - 3) // stride + 1, (5 + 2 - 3) // stride + 1)))

        def build():
            return ad.reduce_mean(ad.mul(ad.conv2d(x, w, b, stride=stride), proj))

        check_gradients(build, [x, w, b], tol=1e-4)

    def test_negative_padding_rejected(self):
        with pytest.raises(ad.ShapeError, match="padding must be >= 0, got -1"):
            ad.conv2d(ad.Tensor(np.zeros((1, 1, 4, 4))), ad.Tensor(np.zeros((1, 1, 3, 3))), padding=-1)


def direct_conv(x, w, b, g, stride, padding):
    """Loop-over-outputs reference conv: returns (out, gx, gw, gb) for upstream gradient g."""
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho, wo = g.shape[2:]
    out = np.empty((n, o, ho, wo))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for ni in range(n):
        for oi in range(o):
            for i in range(ho):
                for j in range(wo):
                    rows = slice(i * stride, i * stride + k)
                    cols = slice(j * stride, j * stride + k)
                    out[ni, oi, i, j] = np.sum(xp[ni, :, rows, cols] * w[oi]) + b[0, oi, 0, 0]
                    gw[oi] += g[ni, oi, i, j] * xp[ni, :, rows, cols]
                    gxp[ni, :, rows, cols] += g[ni, oi, i, j] * w[oi]
    gx = gxp[:, :, padding:padding + h, padding:padding + wd]
    return out, gx, gw, g.sum(axis=(0, 2, 3)).reshape(1, o, 1, 1)


class TestConv2dOracle:
    """Batched, non-square and padded cases against the direct loop sum."""

    CASES = sorted({(n, hw, k, stride, padding)
                    for n in (1, 2) for hw in ((7, 5), (6, 8)) for k in (1, 3, 5)
                    for stride in (1, 2) for padding in (0, k // 2, 2)})

    @pytest.mark.parametrize("n, hw, k, stride, padding", CASES)
    def test_forward_and_vjp_match_loops(self, n, hw, k, stride, padding):
        rng = np.random.default_rng(k * 100 + stride * 10 + padding)
        x = rng.uniform(-1, 1, size=(n, 2, *hw))
        w = rng.uniform(-1, 1, size=(3, 2, k, k))
        b = rng.uniform(-1, 1, size=(1, 3, 1, 1))
        out = ad.conv2d(ad.Tensor(x, requires_grad=True), ad.Tensor(w), ad.Tensor(b), stride, padding)
        g = rng.uniform(-1, 1, size=out.shape)
        want = direct_conv(x, w, b, g, stride, padding)
        assert out.shape == want[0].shape
        for got, ref in zip((out.values, *out._vjp(g)), want):
            assert np.abs(got - ref).max() < 1e-12

    @pytest.mark.parametrize("k, stride, padding", [(3, 1, 1), (3, 2, 2), (5, 2, 0)])
    def test_batched_gradients(self, k, stride, padding):
        rng = np.random.default_rng(k + stride + padding)
        x = rand(rng, (2, 2, 7, 6))
        w = rand(rng, (3, 2, k, k))
        b = rand(rng, (1, 3, 1, 1))
        ho, wo = (7 + 2 * padding - k) // stride + 1, (6 + 2 * padding - k) // stride + 1
        proj = ad.Tensor(rng.uniform(-1, 1, size=(2, 3, ho, wo)))

        def build():
            return ad.reduce_mean(ad.mul(ad.conv2d(x, w, b, stride, padding), proj))

        check_gradients(build, [x, w, b], tol=1e-4)

    def test_batch_equals_single_images(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=(2, 4, 6, 8))
        w = ad.Tensor(rng.uniform(-1, 1, size=(5, 4, 3, 3)))
        b = ad.Tensor(rng.uniform(-1, 1, size=(1, 5, 1, 1)))
        both = ad.conv2d(ad.Tensor(x, requires_grad=True), w, b, stride=2)
        g = rng.uniform(-1, 1, size=both.shape)
        gx, gw, gb = both._vjp(g)
        singles = [ad.conv2d(ad.Tensor(x[i:i + 1], requires_grad=True), w, b, stride=2) for i in (0, 1)]
        grads = [s._vjp(g[i:i + 1]) for i, s in enumerate(singles)]
        assert np.array_equal(both.values, np.concatenate([s.values for s in singles]))
        assert np.array_equal(gx, np.concatenate([gr[0] for gr in grads]))
        assert np.abs(gw - grads[0][1] - grads[1][1]).max() < 1e-12
        assert np.abs(gb - grads[0][2] - grads[1][2]).max() < 1e-12


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(ad.scalar(0.0)).item() == 0.5

    def test_elu_asymptote(self):
        assert abs(ad.elu(ad.scalar(-20.0)).item() + 1.0) < 1e-6

    def test_elu_positive_identity(self):
        x = ad.Tensor(np.full((1, 1, 1, 2), [1.5, 0.25]).reshape(1, 1, 1, 2))
        assert np.array_equal(ad.elu(x).values, x.values)

    def test_add_gradient_tight(self):
        rng = np.random.default_rng(0)
        a = rand(rng, (1, 3, 2, 2))
        b = rand(rng, (1, 3, 2, 2))
        proj = ad.Tensor(rng.uniform(-1, 1, size=(1, 3, 2, 2)))

        def build():
            return ad.reduce_mean(ad.mul(ad.add(a, b), proj))

        check_gradients(build, [a, b], tol=1e-6)

    def test_broadcast_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.add(ad.Tensor(np.zeros((1, 2, 2, 2))), ad.Tensor(np.zeros((1, 3, 2, 2))))

    def test_broadcast_add_sums_gradient(self):
        bias = ad.Tensor(np.zeros((1, 2, 1, 1)), requires_grad=True)
        wide = ad.Tensor(np.zeros((1, 2, 3, 3)))
        ad.backward(total(ad.add(wide, bias)))
        assert np.array_equal(bias.grad, np.full((1, 2, 1, 1), 9.0))

    @pytest.mark.parametrize("seed", range(4))
    def test_unary_gradients(self, seed):
        rng = np.random.default_rng(seed)
        ops = [
            ad.sigmoid,
            ad.exp,
            lambda t: ad.elu(ad.shift(t, 2.0)),      # keep clear of the kink at 0
            lambda t: ad.elu(ad.shift(t, -3.0)),
            lambda t: ad.log(ad.shift(t, 3.0)),
            lambda t: ad.absolute(ad.shift(t, 2.0)),
            lambda t: ad.mul(t, t),
            lambda t: ad.sqrt(ad.shift(t, 2.0)),
            lambda t: ad.clamp(t, -0.95, 0.95),
            lambda t: ad.scale(t, -1.7),
            lambda t: ad.shift(t, 0.3),
        ]
        for op in ops:
            x = rand(rng, (1, 2, 3, 3), lo=-0.8, hi=0.8)
            proj = ad.Tensor(rng.uniform(-1, 1, size=(1, 2, 3, 3)))

            def build():
                return ad.reduce_mean(ad.mul(op(x), proj))

            check_gradients(build, [x], tol=1e-4)

    @pytest.mark.parametrize("seed", range(4))
    def test_binary_gradients(self, seed):
        rng = np.random.default_rng(seed)
        for op in (ad.add, ad.sub, ad.mul):
            a = rand(rng, (1, 2, 3, 3))
            b = rand(rng, (1, 2, 1, 3))  # exercises broadcasting
            proj = ad.Tensor(rng.uniform(-1, 1, size=(1, 2, 3, 3)))

            def build():
                return ad.reduce_mean(ad.mul(op(a, b), proj))

            check_gradients(build, [a, b], tol=1e-4)
        a = rand(rng, (1, 2, 3, 3))
        b = rand(rng, (1, 2, 3, 3), lo=1.0, hi=2.0)
        proj = ad.Tensor(rng.uniform(-1, 1, size=(1, 2, 3, 3)))

        def build():
            return ad.reduce_mean(ad.mul(ad.div(a, b), proj))

        check_gradients(build, [a, b], tol=1e-4)


class TestUpsample:
    def test_broadcasts_value(self):
        out = ad.upsample_nearest(ad.scalar(7.0), 2)
        assert out.shape == (1, 1, 2, 2)
        assert np.array_equal(out.values, np.full((1, 1, 2, 2), 7.0))

    def test_factor_one_identity(self):
        x = ad.Tensor(np.arange(4.0).reshape(1, 1, 2, 2))
        assert np.array_equal(ad.upsample_nearest(x, 1).values, x.values)

    def test_gradient_counts_contributions(self):
        x = ad.Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        ad.backward(total(ad.upsample_nearest(x, 2)))
        assert np.array_equal(x.grad, np.full((1, 1, 2, 2), 4.0))

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, (1, 2, 2, 3))
        proj = ad.Tensor(rng.uniform(-1, 1, size=(1, 2, 4, 6)))

        def build():
            return ad.reduce_mean(ad.mul(ad.upsample_nearest(x, 2), proj))

        check_gradients(build, [x], tol=1e-4)


class TestPixelShuffle:
    def test_shape_law(self):
        assert ad.pixel_shuffle(ad.Tensor(np.zeros((1, 4, 2, 2))), 2).shape == (1, 1, 4, 4)

    def test_channel_to_block_map(self):
        a, b, c, d = 3.0, -1.0, 4.0, 1.5
        x = ad.Tensor(np.array([a, b, c, d]).reshape(1, 4, 1, 1))
        out = ad.pixel_shuffle(x, 2)
        assert np.array_equal(out.values[0, 0], np.array([[a, b], [c, d]]))

    def test_brute_force_index_map(self):
        # oracle: out[n, c, h*r+dy, w*r+dx] = in[n, c*r*r + dy*r + dx, h, w]
        rng = np.random.default_rng(1)
        r = 2
        x = rng.uniform(size=(2, 8, 3, 5))
        out = ad.pixel_shuffle(ad.Tensor(x), r).values
        for n in range(2):
            for c in range(2):
                for h in range(3):
                    for w in range(5):
                        for dy in range(r):
                            for dx in range(r):
                                assert out[n, c, h * r + dy, w * r + dx] == x[n, c * r * r + dy * r + dx, h, w]

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.pixel_shuffle(ad.Tensor(np.zeros((1, 3, 2, 2))), 2)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 3))
    def test_permutation_property(self, seed, co, r):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(1, co * r * r, 2, 3))
        out = ad.pixel_shuffle(ad.Tensor(x), r).values
        assert sorted(out.ravel()) == sorted(x.ravel())

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(2)
        x = ad.Tensor(rng.uniform(size=(1, 8, 2, 3)), requires_grad=True)
        out = ad.pixel_shuffle(x, 2)
        # backward of sum applies the inverse rearrangement to all-ones, so
        # pairing forward with a sum that picks single entries round-trips
        ad.backward(total(ad.mul(out, out)))
        assert np.allclose(x.grad, 2.0 * x.values)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, (1, 4, 2, 3))
        proj = ad.Tensor(rng.uniform(-1, 1, size=(1, 1, 4, 6)))

        def build():
            return ad.reduce_mean(ad.mul(ad.pixel_shuffle(x, 2), proj))

        check_gradients(build, [x], tol=1e-4)


class TestGridSample:
    def test_zero_offsets_identity_bit_exact(self):
        rng = np.random.default_rng(0)
        src = ad.Tensor(rng.uniform(size=(1, 3, 4, 6)))
        out = ad.grid_sample_bilinear(src, ad.Tensor(np.zeros((1, 1, 4, 6))))
        assert np.array_equal(out.values, src.values)

    def test_ramp_shift_with_border_clamp(self):
        src = ad.Tensor(np.array([0.0, 1.0, 2.0, 3.0]).reshape(1, 1, 1, 4))
        offsets = ad.Tensor(np.full((1, 1, 1, 4), 1.0 / 4.0))
        out = ad.grid_sample_bilinear(src, offsets)
        assert np.array_equal(out.values[0, 0, 0], np.array([1.0, 2.0, 3.0, 3.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.grid_sample_bilinear(ad.Tensor(np.zeros((1, 3, 4, 4))), ad.Tensor(np.zeros((1, 1, 4, 5))))

    @pytest.mark.parametrize("seed", range(5))
    def test_offset_gradients_off_lattice(self, seed):
        rng = np.random.default_rng(seed)
        src = rand(rng, (1, 1, 4, 6))
        # fractional offsets keep every sample position strictly between
        # integer columns and inside the border
        off_px = rng.uniform(0.3, 0.7, size=(1, 1, 4, 6)) + rng.integers(0, 2, size=(1, 1, 4, 6))
        base = np.arange(6.0)
        off_px = np.minimum(off_px, 6 - 1.4 - base)  # stay off the right border
        offsets = ad.Tensor(off_px / 6.0, requires_grad=True)
        proj = ad.Tensor(rng.uniform(-1, 1, size=(1, 1, 4, 6)))

        def build():
            return ad.reduce_mean(ad.mul(ad.grid_sample_bilinear(src, offsets), proj))

        check_gradients(build, [src, offsets], tol=1e-3)

    def test_gradient_zero_when_clamped(self):
        src = ad.Tensor(np.arange(4.0).reshape(1, 1, 1, 4))
        offsets = ad.Tensor(np.full((1, 1, 1, 4), 2.0), requires_grad=True)  # far past the border
        ad.backward(total(ad.grid_sample_bilinear(src, offsets)))
        assert np.array_equal(offsets.grad, np.zeros((1, 1, 1, 4)))


class TestReduceConcatCrop:
    def test_mean_of_ones(self):
        assert ad.reduce_mean(ad.Tensor(np.ones((1, 1, 2, 2)))).item() == 1.0

    def test_channel_mean(self):
        x = ad.Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1))
        out = ad.reduce_mean(x, axes=(1,))
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 2.0

    def test_mean_gradient_uniform(self):
        x = ad.Tensor(np.zeros((1, 2, 3, 4)), requires_grad=True)
        ad.backward(ad.reduce_mean(x))
        assert np.allclose(x.grad, 1.0 / 24.0)

    def test_concat_shapes_and_order(self):
        a = ad.Tensor(np.full((1, 2, 2, 2), 1.0))
        b = ad.Tensor(np.full((1, 3, 2, 2), 2.0))
        out = ad.concat_channels([a, b])
        assert out.shape == (1, 5, 2, 2)
        assert np.array_equal(out.values[:, :2], a.values)
        assert np.array_equal(out.values[:, 2:], b.values)

    def test_concat_single_input_identity(self):
        a = ad.Tensor(np.arange(8.0).reshape(1, 2, 2, 2))
        assert np.array_equal(ad.concat_channels([a]).values, a.values)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 4))
    def test_concat_split_round_trip(self, seed, c1, c2):
        rng = np.random.default_rng(seed)
        a = ad.Tensor(rng.uniform(size=(1, c1, 2, 3)), requires_grad=True)
        b = ad.Tensor(rng.uniform(size=(1, c2, 2, 3)), requires_grad=True)
        out = ad.concat_channels([a, b])
        ad.backward(total(ad.mul(out, out)))
        assert np.allclose(a.grad, 2 * a.values)
        assert np.allclose(b.grad, 2 * b.values)

    def test_concat_spatial_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.concat_channels([ad.Tensor(np.zeros((1, 1, 2, 2))), ad.Tensor(np.zeros((1, 1, 3, 2)))])

    @pytest.mark.parametrize("seed", range(3))
    def test_crop_and_pool_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, (1, 2, 5, 6))
        proj_c = ad.Tensor(rng.uniform(-1, 1, size=(1, 2, 3, 4)))
        proj_p = ad.Tensor(rng.uniform(-1, 1, size=(1, 2, 3, 4)))

        def build_crop():
            return ad.reduce_mean(ad.mul(ad.crop(x, 1, 4, 2, 6), proj_c))

        def build_pool():
            return ad.reduce_mean(ad.mul(ad.avg_pool(x, 3, 1), proj_p))

        check_gradients(build_crop, [x], tol=1e-4)
        check_gradients(build_pool, [x], tol=1e-4)

    def test_avg_pool_nonoverlapping_values(self):
        x = ad.Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = ad.avg_pool(x, 2, 2)
        assert np.array_equal(out.values[0, 0], np.array([[2.5, 4.5], [10.5, 12.5]]))


class TestBackward:
    def test_requires_scalar_loss(self):
        with pytest.raises(ad.ShapeError):
            ad.backward(ad.Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True))

    def test_mean_gradient(self):
        x = ad.Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        ad.backward(ad.reduce_mean(x))
        assert np.allclose(x.grad, 0.25)

    def test_sum_of_squares_gradient(self):
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.uniform(-1, 1, size=(1, 2, 2, 2)), requires_grad=True)
        ad.backward(total(ad.mul(x, x)))
        assert np.allclose(x.grad, 2 * x.values)

    def test_accumulation_across_calls(self):
        x = ad.Tensor(np.zeros((1, 1, 1, 1)), requires_grad=True)
        ad.backward(ad.reduce_mean(x))
        ad.backward(ad.reduce_mean(x))
        assert x.grad[0, 0, 0, 0] == 2.0

    def test_reused_node_accumulates_via_two_paths(self):
        x = ad.scalar(3.0, requires_grad=True)
        y = ad.add(ad.mul(x, x), x)  # d/dx = 2x + 1
        ad.backward(y)
        assert x.grad[0, 0, 0, 0] == 7.0

    @pytest.mark.parametrize("seed", range(5))
    def test_composite_conv_elu_sample_mean(self, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, (1, 2, 4, 6))
        w = rand(rng, (1, 2, 3, 3))
        b = rand(rng, (1, 1, 1, 1))
        off = ad.Tensor(rng.uniform(0.05, 0.12, size=(1, 1, 4, 6)), requires_grad=True)

        def build():
            feat = ad.elu(ad.conv2d(x, w, b))
            return ad.reduce_mean(ad.grid_sample_bilinear(feat, off))

        check_gradients(build, [x, w, b, off], tol=1e-4)
