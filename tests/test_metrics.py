"""Metric oracles: closed forms, brute-force agreement, post-processing weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusiondepth import metrics as mt


def brute_force(pred, gt, mask, cap=80.0, lo=1e-3):
    """Straight-line reimplementation used as an independent oracle."""
    p = np.clip(pred[mask], lo, cap)
    g = np.clip(gt[mask], lo, cap)
    thresh = np.maximum(p / g, g / p)
    return dict(
        abs_rel=np.mean(np.abs(p - g) / g),
        sq_rel=np.mean((p - g) ** 2 / g),
        rmse=np.sqrt(np.mean((p - g) ** 2)),
        rmse_log=np.sqrt(np.mean((np.log(p) - np.log(g)) ** 2)),
        delta1=np.mean(thresh < 1.25),
        delta2=np.mean(thresh < 1.25**2),
        delta3=np.mean(thresh < 1.25**3),
    )


class TestComputeMetrics:
    def test_identity_prediction(self):
        gt = np.random.default_rng(0).uniform(1, 60, (10, 10))
        m = mt.compute_metrics(gt.copy(), gt, np.ones_like(gt, bool))
        assert m.abs_rel == 0.0 and m.sq_rel == 0.0
        assert m.rmse == 0.0 and m.rmse_log == 0.0
        assert m.delta1 == 1.0 and m.delta2 == 1.0 and m.delta3 == 1.0
        assert np.isnan(m.d1_all)

    def test_uniform_overestimate_closed_form(self):
        gt = np.random.default_rng(1).uniform(1, 10, (8, 8))
        m = mt.compute_metrics(1.3 * gt, gt, np.ones_like(gt, bool))
        assert m.delta1 == 0.0
        assert m.delta2 == 1.0 and m.delta3 == 1.0
        assert m.abs_rel == pytest.approx(0.3, abs=1e-12)

    def test_two_pixel_hand_computation(self):
        gt = np.array([[2.0, 4.0]])
        pred = np.array([[2.0, 2.0]])
        m = mt.compute_metrics(pred, gt, np.ones_like(gt, bool))
        assert m.abs_rel == pytest.approx(0.25, abs=1e-15)
        assert m.sq_rel == pytest.approx(0.5, abs=1e-15)
        assert m.rmse == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert m.delta1 == 0.5  # ratio 2.0 fails every threshold once

    def test_mask_excludes_pixels(self):
        gt = np.array([[2.0, 4.0]])
        pred = np.array([[2.0, 400.0]])
        mask = np.array([[True, False]])
        m = mt.compute_metrics(pred, gt, mask)
        assert m.abs_rel == 0.0

    def test_empty_mask_rejected(self):
        gt = np.ones((4, 4))
        with pytest.raises(ValueError):
            mt.compute_metrics(gt, gt, np.zeros((4, 4), bool))

    def test_depth_cap_applies_to_both(self):
        gt = np.full((2, 2), 200.0)
        pred = np.full((2, 2), 120.0)
        m = mt.compute_metrics(pred, gt, np.ones((2, 2), bool))
        # both clamp to the 80 m cap, so the comparison is exact
        assert m.abs_rel == 0.0 and m.delta1 == 1.0

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        gt = rng.uniform(0.5, 100.0, (10, 10))
        pred = gt * rng.uniform(0.5, 2.0, (10, 10))
        mask = rng.uniform(size=(10, 10)) < 0.8
        if not mask.any():
            mask[0, 0] = True
        m = mt.compute_metrics(pred, gt, mask)
        ref = brute_force(pred, gt, mask)
        for key, want in ref.items():
            assert getattr(m, key) == pytest.approx(want, abs=1e-12), key

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.0, 0.5), st.floats(0.5, 1.5))
    def test_error_grows_with_perturbation(self, small, extra):
        gt = np.random.default_rng(3).uniform(2, 50, (6, 6))
        mask = np.ones_like(gt, bool)
        near = mt.compute_metrics(gt * (1 + small), gt, mask)
        far = mt.compute_metrics(gt * (1 + small + extra), gt, mask)
        assert far.abs_rel >= near.abs_rel
        assert far.rmse >= near.rmse
        assert far.delta1 <= near.delta1


class TestD1:
    def test_exact_prediction(self):
        gt = np.random.default_rng(4).uniform(5, 50, (8, 8))
        assert mt.compute_d1(gt.copy(), gt, np.ones_like(gt, bool)) == 0.0

    def test_large_uniform_error(self):
        gt = np.full((4, 4), 50.0)
        pred = gt + 10.0  # 10 px and 20 percent: both conditions met
        assert mt.compute_d1(pred, gt, np.ones_like(gt, bool)) == 100.0

    def test_small_absolute_error_passes(self):
        gt = np.full((4, 4), 50.0)
        pred = gt + 2.0  # under the 3 px gate
        assert mt.compute_d1(pred, gt, np.ones_like(gt, bool)) == 0.0

    def test_small_relative_error_passes(self):
        gt = np.full((4, 4), 100.0)
        pred = gt + 4.0  # 4 px but only 4 percent
        assert mt.compute_d1(pred, gt, np.ones_like(gt, bool)) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        gt = rng.uniform(1, 80, (7, 9))
        pred = gt + rng.normal(0, 4, gt.shape)
        mask = rng.uniform(size=gt.shape) < 0.7
        if not mask.any():
            mask[0, 0] = True
        err = np.abs(pred[mask] - gt[mask])
        bad = (err > 3.0) & (err > 0.05 * gt[mask])
        want = 100.0 * bad.mean()
        assert mt.compute_d1(pred, gt, mask) == pytest.approx(want, abs=1e-12)


class TestDepthConversion:
    def test_direct_formula(self):
        assert mt.disparity_to_depth(np.full((1, 1), 2.0), 1.0, 100.0)[0, 0] == 50.0
        assert mt.disparity_to_depth(np.full((1, 1), 36.0), 0.5, 720.0)[0, 0] == 10.0

    def test_doubling_disparity_halves_depth(self):
        d1 = mt.disparity_to_depth(np.array([[3.0]]), 0.5, 480.0)[0, 0]
        d2 = mt.disparity_to_depth(np.array([[6.0]]), 0.5, 480.0)[0, 0]
        assert d2 == pytest.approx(d1 / 2, rel=1e-15)


class TestPostprocess:
    def test_identical_constant_maps(self):
        d = np.full((6, 10), 4.0)
        out = mt.postprocess(d, d.copy())
        assert out.shape == d.shape
        assert np.allclose(out, 4.0)

    def test_left_edge_takes_mirrored_map(self):
        d = np.full((4, 40), 1.0)
        d_flip = np.full((4, 40), 3.0)
        out = mt.postprocess(d, d_flip)
        # column 0 sits fully inside the left ramp: weight 1 on the un-mirrored flip
        assert np.allclose(out[:, 0], 3.0)
        assert np.allclose(out[:, -1], 1.0)
        mid = out[:, 20]
        assert np.all((mid > 1.0) & (mid < 3.0))

    def test_ramp_width_scales_with_image(self):
        w = 100
        d = np.zeros((2, w))
        d_flip = np.ones((2, w))
        out = mt.postprocess(d, d_flip)
        # ramp covers the first 10 percent of columns; past it both maps average
        assert out[0, 0] == 1.0
        assert out[0, w // 2] == pytest.approx(0.5)



class TestReport:
    def rows(self):
        gt = np.random.default_rng(5).uniform(1, 40, (6, 6))
        mask = np.ones_like(gt, bool)
        return [mt.compute_metrics(gt * f, gt, mask) for f in (1.0, 1.1)]

    def test_header_exact(self):
        text = mt.format_report(self.rows())
        assert text.splitlines()[0] == "abs_rel,sq_rel,rmse,rmse_log,d1_all,delta1,delta2,delta3"

    def test_row_count_and_parse(self):
        rows = self.rows()
        lines = mt.format_report(rows).splitlines()
        assert len(lines) == 2 + len(rows)  # header, one line per row, mean row
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 8
            [float(f) for f in fields]

    def test_aggregate_appends_mean_row(self):
        rows = self.rows()
        lines = mt.format_report(rows).splitlines()
        mean_abs_rel = float(lines[-1].split(",")[0])
        assert mean_abs_rel == pytest.approx((rows[0].abs_rel + rows[1].abs_rel) / 2, rel=1e-12)
