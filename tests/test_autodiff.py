"""Engine tests: frozen-value examples plus finite-difference oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_gradients, numeric_grad, analytic_grad, relative_error, retained
from fusiondepth import autodiff as ad


def rand(rng, shape, lo=-1.0, hi=1.0, grad=True):
    return ad.Tensor(rng.uniform(lo, hi, size=shape), requires_grad=grad)


def scalar(value):
    return ad.Tensor(np.full((1, 1, 1, 1), value))


def zero_bias(out_ch):
    return ad.Tensor(np.zeros((1, out_ch, 1, 1)))


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
        assert scalar(2.5).item() == 2.5

    def test_finite_error_on_nan(self):
        zero = ad.Tensor(np.zeros((1, 1, 1, 1)))
        with pytest.raises(ad.FiniteError):
            ad.div(zero, zero)  # 0/0 is NaN


class TestConv2d:
    def test_all_ones_center_is_nine(self):
        x = ad.Tensor(np.ones((1, 1, 3, 3)))
        w = ad.Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
        out = ad.conv2d(x, w, zero_bias(1))
        assert out.values[0, 0, 1, 1] == 9.0
        assert out.values[0, 0, 0, 0] == 4.0  # corner sees a 2x2 overlap

    def test_stride2_shape_law(self):
        x = ad.Tensor(np.zeros((1, 1, 4, 4)))
        w = ad.Tensor(np.zeros((5, 1, 3, 3)))
        out = ad.conv2d(x, w, zero_bias(5), stride=2)
        assert out.shape == (1, 5, 2, 2)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.conv2d(ad.Tensor(np.zeros((1, 2, 4, 4))), ad.Tensor(np.zeros((1, 3, 3, 3))), zero_bias(1))

    def test_even_kernel_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.conv2d(ad.Tensor(np.zeros((1, 1, 4, 4))), ad.Tensor(np.zeros((1, 1, 2, 2))), zero_bias(1))

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


def direct_conv(x, w, b, g, stride):
    """Loop-over-outputs reference conv with zero padding k // 2: returns
    (out, gx, gw, gb) for upstream gradient g."""
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    padding = k // 2
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


class TestRetention:
    """An op's output keeps its own values and the tape's bookkeeping; its VJP
    closure derives what else it needs when backward runs."""

    def test_conv2d_keeps_no_im2col_columns(self):
        rng = np.random.default_rng(7)
        x, w, b = rand(rng, (1, 32, 32, 32)), rand(rng, (32, 32, 3, 3)), rand(rng, (1, 32, 1, 1))
        out, held = retained(lambda: ad.conv2d(x, w, b))
        assert held <= 1.05 * out.values.nbytes

    def test_elu_keeps_no_slope(self):
        x = rand(np.random.default_rng(8), (1, 32, 32, 32))
        out, held = retained(lambda: ad.elu(x))
        assert held <= 1.05 * out.values.nbytes

    def test_conv2d_input_gradient_builds_one_image_at_a_time(self):
        # refine.*.post1's shape at 64x64: the columns of g for one image are
        # (16*3*3, 64*64), 4.5 MiB; the whole pair's would be twice that
        rng = np.random.default_rng(9)
        x, w = rand(rng, (2, 1, 64, 64)), rand(rng, (16, 1, 3, 3))
        out = ad.conv2d(x, w, zero_bias(16))
        g = rng.uniform(-1, 1, size=out.shape)
        one_image_cols = 16 * 3 * 3 * 64 * 64 * 8
        tracemalloc.start()
        try:
            out._vjp(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * one_image_cols

    def test_grid_sample_keeps_one_gathered_array(self):
        # the closure keeps the difference of the two gathered taps, not both taps
        rng = np.random.default_rng(10)
        src = rand(rng, (1, 32, 32, 32))
        offsets = ad.Tensor(rng.uniform(-0.2, 0.2, size=(1, 1, 32, 32)))
        out, held = retained(lambda: ad.grid_sample_bilinear(src, offsets))
        assert held <= 2.25 * out.values.nbytes


class TestDiff:
    """ad.diff against np.diff's definition written out as loops, and finite differences."""

    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    @pytest.mark.parametrize("axis", [2, 3])
    def test_forward_and_vjp_match_loops(self, axis, layout):
        rng = np.random.default_rng(axis)
        x = rand(rng, (2, 3, 5, 6))
        out = ad.diff(x, axis)
        g = rng.uniform(-1, 1, size=out.shape)
        if layout == "transposed":
            g = np.ascontiguousarray(g.transpose(3, 2, 1, 0)).transpose(3, 2, 1, 0)
            assert not g.flags.c_contiguous
        want_out, want_gx = np.zeros(out.shape), np.zeros(x.shape)
        for here in np.ndindex(*out.shape):
            ahead = tuple(i + (a == axis) for a, i in enumerate(here))
            want_out[here] = x.values[ahead] - x.values[here]
            want_gx[ahead] += g[here]
            want_gx[here] -= g[here]
        (gx,) = out._vjp(g)
        assert np.abs(out.values - want_out).max() <= 1e-12
        assert np.abs(gx - want_gx).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("axis", [2, 3])
    def test_gradients(self, seed, axis):
        rng = np.random.default_rng(seed)
        x = rand(rng, (1, 2, 5, 6))
        shape = list(x.shape)
        shape[axis] -= 1
        proj = ad.Tensor(rng.uniform(-1, 1, size=shape))
        check_gradients(lambda: ad.reduce_mean(ad.mul(ad.diff(x, axis), proj)), [x], tol=1e-4)


class TestConv2dOracle:
    """Batched and non-square cases against the direct loop sum."""

    # The ids number each case by its place in the grid that also held
    # paddings 0 and 2, so a case keeps its id now that padding is k // 2.
    GRID = sorted({(n, hw, k, stride, padding)
                   for n in (1, 2) for hw in ((7, 5), (6, 8)) for k in (1, 3, 5)
                   for stride in (1, 2) for padding in (0, k // 2, 2)})
    CASES = [pytest.param(n, hw, k, stride, id=f"{n}-hw{i}-{k}-{stride}-{padding}")
             for i, (n, hw, k, stride, padding) in enumerate(GRID) if padding == k // 2]

    @pytest.mark.parametrize("n, hw, k, stride", CASES)
    def test_forward_and_vjp_match_loops(self, n, hw, k, stride):
        rng = np.random.default_rng(k * 100 + stride * 10 + k // 2)
        x = rng.uniform(-1, 1, size=(n, 2, *hw))
        w = rng.uniform(-1, 1, size=(3, 2, k, k))
        b = rng.uniform(-1, 1, size=(1, 3, 1, 1))
        out = ad.conv2d(ad.Tensor(x, requires_grad=True), ad.Tensor(w), ad.Tensor(b), stride)
        g = rng.uniform(-1, 1, size=out.shape)
        want = direct_conv(x, w, b, g, stride)
        assert out.shape == want[0].shape
        for got, ref in zip((out.values, *out._vjp(g)), want):
            assert np.abs(got - ref).max() < 1e-12

    # the channel-last view network.image_batch builds, and a negative-stride view
    VIEWS = {"channel_last": lambda x: np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2),
             "reversed_columns": lambda x: x[..., ::-1]}

    @pytest.mark.parametrize("view", VIEWS)
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_non_contiguous_input_matches_loops(self, view, k, stride):
        rng = np.random.default_rng(k * 10 + stride)
        x = self.VIEWS[view](rng.uniform(-1, 1, size=(2, 3, 7, 6)))
        assert not x.flags.c_contiguous
        w = rng.uniform(-1, 1, size=(4, 3, k, k))
        b = rng.uniform(-1, 1, size=(1, 4, 1, 1))
        out = ad.conv2d(ad.Tensor(x, requires_grad=True), ad.Tensor(w), ad.Tensor(b), stride)
        g = rng.uniform(-1, 1, size=out.shape)
        want = direct_conv(np.ascontiguousarray(x), w, b, g, stride)
        for got, ref in zip((out.values, *out._vjp(g)), want):
            assert np.abs(got - ref).max() < 1e-12

    # a channel slice of a wider gradient, and a negative-stride view
    G_VIEWS = {"channel_slice": lambda g: np.concatenate([g, g[:, :1]], axis=1)[:, :-1],
               "reversed_columns": lambda g: g[..., ::-1].copy()[..., ::-1]}

    @pytest.mark.parametrize("view", G_VIEWS)
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("hw", [(6, 8), (7, 5)])
    def test_non_contiguous_gradient_matches_loops(self, view, k, stride, hw):
        rng = np.random.default_rng(k * 10 + stride + hw[0])
        x = rng.uniform(-1, 1, size=(2, 3, *hw))
        w = rng.uniform(-1, 1, size=(4, 3, k, k))
        b = rng.uniform(-1, 1, size=(1, 4, 1, 1))
        out = ad.conv2d(ad.Tensor(x, requires_grad=True), ad.Tensor(w), ad.Tensor(b), stride)
        g = self.G_VIEWS[view](rng.uniform(-1, 1, size=out.shape))
        assert g.shape == out.shape and not g.flags.c_contiguous
        want = direct_conv(x, w, b, np.ascontiguousarray(g), stride)
        for got, ref in zip(out._vjp(g), want[1:]):
            assert np.abs(got - ref).max() < 1e-12

    @pytest.mark.parametrize("k, stride, padding", [(3, 1, 1), (3, 2, 1), (5, 2, 2)])
    def test_batched_gradients(self, k, stride, padding):
        assert padding == k // 2
        rng = np.random.default_rng(k + stride + padding)
        x = rand(rng, (2, 2, 7, 6))
        w = rand(rng, (3, 2, k, k))
        b = rand(rng, (1, 3, 1, 1))
        ho, wo = (7 + 2 * padding - k) // stride + 1, (6 + 2 * padding - k) // stride + 1
        proj = ad.Tensor(rng.uniform(-1, 1, size=(2, 3, ho, wo)))

        def build():
            return ad.reduce_mean(ad.mul(ad.conv2d(x, w, b, stride), proj))

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
        assert ad.sigmoid(scalar(0.0)).item() == 0.5

    def test_elu_asymptote(self):
        assert abs(ad.elu(scalar(-20.0)).item() + 1.0) < 1e-6

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

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
    def test_broadcastable_shapes_rejected(self, op):
        # binary ops take equal shapes: a size-1 extent does not broadcast
        with pytest.raises(ad.ShapeError, match=r"\(1, 2, 3, 3\) and \(1, 2, 1, 3\)"):
            op(ad.Tensor(np.ones((1, 2, 3, 3))), ad.Tensor(np.ones((1, 2, 1, 3))))

    @pytest.mark.parametrize("seed", range(4))
    def test_unary_gradients(self, seed):
        rng = np.random.default_rng(seed)
        ops = [
            ad.sigmoid,
            lambda t: ad.elu(ad.shift(t, 2.0)),      # keep clear of the kink at 0
            lambda t: ad.elu(ad.shift(t, -3.0)),
            lambda t: ad.absolute(ad.shift(t, 2.0)),
            lambda t: ad.mul(t, t),
            lambda t: ad.clamp01(ad.shift(ad.scale(t, 0.5), 0.5)),  # inside (0, 1)
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
            b = rand(rng, (1, 2, 3, 3))
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
        out = ad.upsample_nearest(scalar(7.0))
        assert out.shape == (1, 1, 2, 2)
        assert np.array_equal(out.values, np.full((1, 1, 2, 2), 7.0))

    def test_each_pixel_fills_a_2x2_block(self):
        x = ad.Tensor(np.arange(4.0).reshape(1, 1, 2, 2))
        out = ad.upsample_nearest(x).values[0, 0]
        assert np.array_equal(out, [[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]])

    def test_gradient_counts_contributions(self):
        x = ad.Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        grads = ad.backward(total(ad.upsample_nearest(x)))
        assert np.array_equal(grads[x], np.full((1, 1, 2, 2), 4.0))

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, (1, 2, 2, 3))
        proj = ad.Tensor(rng.uniform(-1, 1, size=(1, 2, 4, 6)))

        def build():
            return ad.reduce_mean(ad.mul(ad.upsample_nearest(x), proj))

        check_gradients(build, [x], tol=1e-4)


class TestPixelShuffle:
    def test_shape_law(self):
        assert ad.pixel_shuffle(ad.Tensor(np.zeros((1, 4, 2, 2)))).shape == (1, 1, 4, 4)

    def test_channel_to_block_map(self):
        a, b, c, d = 3.0, -1.0, 4.0, 1.5
        x = ad.Tensor(np.array([a, b, c, d]).reshape(1, 4, 1, 1))
        out = ad.pixel_shuffle(x)
        assert np.array_equal(out.values[0, 0], np.array([[a, b], [c, d]]))

    def test_brute_force_index_map(self):
        # oracle: out[n, c, h*r+dy, w*r+dx] = in[n, c*r*r + dy*r + dx, h, w]
        rng = np.random.default_rng(1)
        r = 2
        x = rng.uniform(size=(2, 8, 3, 5))
        out = ad.pixel_shuffle(ad.Tensor(x)).values
        for n in range(2):
            for c in range(2):
                for h in range(3):
                    for w in range(5):
                        for dy in range(r):
                            for dx in range(r):
                                assert out[n, c, h * r + dy, w * r + dx] == x[n, c * r * r + dy * r + dx, h, w]

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.pixel_shuffle(ad.Tensor(np.zeros((1, 3, 2, 2))))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_permutation_property(self, seed, co):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(1, co * 4, 2, 3))
        out = ad.pixel_shuffle(ad.Tensor(x)).values
        assert sorted(out.ravel()) == sorted(x.ravel())

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(2)
        x = ad.Tensor(rng.uniform(size=(1, 8, 2, 3)), requires_grad=True)
        out = ad.pixel_shuffle(x)
        # backward of sum applies the inverse rearrangement to all-ones, so
        # pairing forward with a sum that picks single entries round-trips
        grads = ad.backward(total(ad.mul(out, out)))
        assert np.allclose(grads[x], 2.0 * x.values)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, (1, 4, 2, 3))
        proj = ad.Tensor(rng.uniform(-1, 1, size=(1, 1, 4, 6)))

        def build():
            return ad.reduce_mean(ad.mul(ad.pixel_shuffle(x), proj))

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
        grads = ad.backward(total(ad.grid_sample_bilinear(src, offsets)))
        assert np.array_equal(grads[offsets], np.zeros((1, 1, 1, 4)))

    def test_source_gradient_matches_nested_loop_oracle_exactly(self):
        rng = np.random.default_rng(7)
        n, c, h, w = 2, 3, 5, 7
        src = rand(rng, (n, c, h, w))
        # up to 3 px either way: many positions clamp at both borders, so
        # several taps of one row land on the same border column
        offsets = rng.uniform(-3.0, 3.0, size=(n, 1, h, w)) / w
        g = rng.uniform(-1.0, 1.0, size=(n, c, h, w))
        gsrc, _ = ad.grid_sample_bilinear(src, ad.Tensor(offsets))._vjp(g)

        expected = np.zeros((n, c, h, w))
        hits = np.zeros((n, c, h, w), dtype=int)
        for tap in (0, 1):  # every left tap, then every right tap, each in C order
            for b, ch, i, j in np.ndindex(n, c, h, w):
                pos = min(max(j + offsets[b, 0, i, j] * w, 0.0), w - 1.0)
                j0 = min(int(np.floor(pos)), w - 1)
                frac = pos - j0
                col = j0 if tap == 0 else min(j0 + 1, w - 1)
                expected[b, ch, i, col] += g[b, ch, i, j] * ((1.0 - frac) if tap == 0 else frac)
                hits[b, ch, i, col] += 1
        assert hits[..., 0].max() >= 3 and hits[..., -1].max() >= 3
        assert np.array_equal(gsrc, expected)


class TestReduceConcatCrop:
    def test_mean_of_ones(self):
        assert ad.reduce_mean(ad.Tensor(np.ones((1, 1, 2, 2)))).item() == 1.0

    def test_channel_mean(self):
        x = ad.Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1))
        out = ad.reduce_mean(x)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 2.0

    def test_mean_gradient_uniform(self):
        x = ad.Tensor(np.zeros((1, 2, 3, 4)), requires_grad=True)
        grads = ad.backward(ad.reduce_mean(x))
        assert np.allclose(grads[x], 1.0 / 24.0)

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
        grads = ad.backward(total(ad.mul(out, out)))
        assert np.allclose(grads[a], 2 * a.values)
        assert np.allclose(grads[b], 2 * b.values)

    def test_concat_spatial_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.concat_channels([ad.Tensor(np.zeros((1, 1, 2, 2))), ad.Tensor(np.zeros((1, 1, 3, 2)))])

    @pytest.mark.parametrize("seed", range(3))
    def test_pool_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, (1, 2, 5, 6))
        proj = ad.Tensor(rng.uniform(-1, 1, size=(1, 2, 3, 4)))

        def build():
            return ad.reduce_mean(ad.mul(ad.avg_pool(x, 3, 1), proj))

        check_gradients(build, [x], tol=1e-4)

    def test_avg_pool_nonoverlapping_values(self):
        x = ad.Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = ad.avg_pool(x, 2, 2)
        assert np.array_equal(out.values[0, 0], np.array([[2.5, 4.5], [10.5, 12.5]]))

    @pytest.mark.parametrize("half", [1, 2])
    def test_swap_eyes_exchanges_the_halves(self, half):
        x = rand(np.random.default_rng(half), (2 * half, 3, 4, 5))
        out = ad.swap_eyes(x)
        assert out.shape == x.shape
        assert np.array_equal(out.values[:half], x.values[half:])
        assert np.array_equal(out.values[half:], x.values[:half])

    @pytest.mark.parametrize("half", [1, 2])
    def test_swap_eyes_vjp_swaps_g_back(self, half):
        x = rand(np.random.default_rng(half), (2 * half, 3, 4, 5))
        g = np.random.default_rng(10 + half).uniform(-1, 1, size=x.shape)
        (gx,) = ad.swap_eyes(x)._vjp(g)
        assert np.array_equal(gx[:half], g[half:])
        assert np.array_equal(gx[half:], g[:half])

    def test_swap_eyes_rejects_an_odd_batch(self):
        with pytest.raises(ad.ShapeError):
            ad.swap_eyes(rand(np.random.default_rng(0), (3, 1, 2, 2)))

    @pytest.mark.parametrize("seed", range(3))
    def test_swap_eyes_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, (4, 2, 3, 4))
        proj = ad.Tensor(rng.uniform(-1, 1, size=(4, 2, 3, 4)))

        def build():
            return ad.reduce_mean(ad.mul(ad.mul(ad.swap_eyes(x), proj), x))

        check_gradients(build, [x], tol=1e-4)


class TestWindowSumOracle:
    """avg_pool's forward and upsample_nearest's VJP against loop sums, on
    contiguous and non-contiguous inputs."""

    VIEWS = {"contiguous": lambda x: x, **TestConv2dOracle.VIEWS}

    @pytest.mark.parametrize("view", VIEWS)
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("hw", [(7, 6), (8, 9)])
    @pytest.mark.parametrize("k, stride", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_avg_pool_matches_loop_mean(self, view, n, hw, k, stride):
        rng = np.random.default_rng(k * 10 + stride + n * 100)
        x = self.VIEWS[view](rng.uniform(-1, 1, size=(n, 3, *hw)))
        out = ad.avg_pool(ad.Tensor(x), k, stride)
        ho, wo = (hw[0] - k) // stride + 1, (hw[1] - k) // stride + 1
        want = np.zeros((n, 3, ho, wo))
        for b, c, i, j in np.ndindex(*want.shape):
            taps = [x[b, c, i * stride + ki, j * stride + kj] for ki in range(k) for kj in range(k)]
            want[b, c, i, j] = sum(taps) / (k * k)
        assert out.shape == want.shape
        assert np.abs(out.values - want).max() < 1e-12

    @pytest.mark.parametrize("view", VIEWS)
    @pytest.mark.parametrize("n", [1, 2])
    def test_upsample_vjp_matches_loop_sum(self, view, n):
        rng = np.random.default_rng(n)
        x = rand(rng, (n, 3, 3, 4))
        out = ad.upsample_nearest(x)
        g = self.VIEWS[view](rng.uniform(-1, 1, size=out.shape))
        (gx,) = out._vjp(g)
        want = np.zeros(x.shape)
        for b, c, i, j in np.ndindex(*out.shape):
            want[b, c, i // 2, j // 2] += g[b, c, i, j]
        assert np.abs(gx - want).max() < 1e-12

    @pytest.mark.parametrize("k, stride", [(3, 1), (2, 2)])
    def test_avg_pool_bits_do_not_depend_on_layout(self, k, stride):
        # the same values as a contiguous array and as the channel-last view network.image_batch builds
        image = np.random.default_rng(5).uniform(0, 1, size=(64, 64, 3))
        outs = [ad.avg_pool(ad.Tensor(values), k, stride).values
                for values in (np.ascontiguousarray(image.transpose(2, 0, 1))[None], image[None].transpose(0, 3, 1, 2))]
        assert np.array_equal(outs[0], outs[1])


class TestBackward:
    def test_requires_scalar_loss(self):
        with pytest.raises(ad.ShapeError):
            ad.backward(ad.Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True))

    def test_mean_gradient(self):
        x = ad.Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        grads = ad.backward(ad.reduce_mean(x))
        assert np.allclose(grads[x], 0.25)

    def test_sum_of_squares_gradient(self):
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.uniform(-1, 1, size=(1, 2, 2, 2)), requires_grad=True)
        grads = ad.backward(total(ad.mul(x, x)))
        assert np.allclose(grads[x], 2 * x.values)

    def test_second_call_on_a_spent_graph_raises(self):
        rng = np.random.default_rng(4)
        x = rand(rng, (1, 2, 3, 3))
        hidden = ad.elu(ad.conv2d(x, rand(rng, (2, 2, 3, 3)), zero_bias(2)))
        loss = ad.reduce_mean(hidden)
        ad.backward(loss)
        assert hidden._parents == () and loss._parents == ()
        with pytest.raises(ad.SpentGraphError):
            ad.backward(loss)
        with pytest.raises(ad.SpentGraphError):  # a new graph over a spent op
            ad.backward(ad.reduce_mean(ad.mul(hidden, hidden)))

    def test_graphs_built_alike_give_equal_gradients(self):
        rng = np.random.default_rng(4)
        x = rand(rng, (1, 2, 3, 3))
        w = rand(rng, (2, 2, 3, 3))

        def build():
            return ad.reduce_mean(ad.elu(ad.conv2d(x, w, zero_bias(2))))

        first, second = ad.backward(build()), ad.backward(build())
        assert first.keys() == second.keys() == {x, w}
        assert all(np.array_equal(first[t], second[t]) for t in first)

    def test_returns_exactly_the_reached_trainable_leaves(self):
        rng = np.random.default_rng(5)
        a, b, unreached = rand(rng, (1, 1, 2, 2)), rand(rng, (1, 1, 2, 2)), rand(rng, (1, 1, 2, 2))
        frozen = rand(rng, (1, 1, 2, 2), grad=False)
        grads = ad.backward(ad.reduce_mean(ad.mul(ad.add(a, frozen), b)))
        assert grads.keys() == {a, b}
        assert np.array_equal(grads[a], b.values / 4.0)
        assert np.array_equal(grads[b], (a.values + frozen.values) / 4.0)
        assert ad.backward(ad.reduce_mean(frozen)) == {}

    @pytest.mark.parametrize("op", ["conv2d", "grid_sample"])
    def test_vjp_builds_no_gradient_for_an_input_without_requires_grad(self, op):
        rng = np.random.default_rng(6)
        weight, bias = rand(rng, (2, 3, 3, 3)), rand(rng, (1, 2, 1, 1))
        offsets = rand(rng, (1, 1, 4, 4), 0.0, 0.3)
        image = rng.uniform(size=(1, 3, 4, 4))

        def build(x):
            return ad.conv2d(x, weight, bias, stride=2) if op == "conv2d" else ad.grid_sample_bilinear(x, offsets)

        frozen, trainable = build(ad.Tensor(image)), build(ad.Tensor(image, requires_grad=True))
        g = rng.uniform(size=frozen.shape)
        skipped, full = frozen._vjp(g), trainable._vjp(g)
        assert skipped[0] is None and full[0].shape == image.shape
        assert all(np.array_equal(a, b) for a, b in zip(skipped[1:], full[1:]))

    def test_reused_node_accumulates_via_two_paths(self):
        x = ad.Tensor(np.full((1, 1, 1, 1), 3.0), requires_grad=True)
        y = ad.add(ad.mul(x, x), x)  # d/dx = 2x + 1
        grads = ad.backward(y)
        assert grads[x][0, 0, 0, 0] == 7.0

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
