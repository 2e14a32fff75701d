"""Depth evaluation metrics and disparity post-processing.

Plain numpy: evaluation is post-hoc arithmetic and never needs gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

MIN_DEPTH = 1e-3
DEPTH_CAP = 80.0
DISP_EPS = 1e-6


@dataclass
class DepthMetrics:
    abs_rel: float
    sq_rel: float
    rmse: float
    rmse_log: float
    d1_all: float
    delta1: float
    delta2: float
    delta3: float

    def row(self):
        return [getattr(self, f.name) for f in fields(self)]


CSV_COLUMNS = ",".join(f.name for f in fields(DepthMetrics))


def _as_array(x):
    return np.asarray(x, dtype=np.float64)


def disparity_to_depth(disp, baseline, focal):
    """depth = b*f / d for disparity in pixels, clamped at 1e-6 px."""
    return (baseline * focal) / np.maximum(_as_array(disp), DISP_EPS)


def compute_metrics(pred_depth, gt_depth, mask):
    """Standard error/accuracy columns over masked pixels.

    Depths are clamped to [MIN_DEPTH, DEPTH_CAP] before comparison. d1_all is NaN
    here: it is defined on disparities, see compute_d1.
    """
    pred = _as_array(pred_depth)
    gt = _as_array(gt_depth)
    valid = _as_array(mask).astype(bool)
    if pred.shape != gt.shape or valid.shape != gt.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape}, gt {gt.shape}, mask {valid.shape}")
    if not valid.any():
        raise ValueError("empty validity mask")
    p = np.clip(pred[valid], MIN_DEPTH, DEPTH_CAP)
    g = np.clip(gt[valid], MIN_DEPTH, DEPTH_CAP)

    err = p - g
    ratio = np.maximum(p / g, g / p)
    return DepthMetrics(
        abs_rel=float(np.mean(np.abs(err) / g)),
        sq_rel=float(np.mean(err ** 2 / g)),
        rmse=float(np.sqrt(np.mean(err ** 2))),
        rmse_log=float(np.sqrt(np.mean((np.log(p) - np.log(g)) ** 2))),
        d1_all=float("nan"),
        delta1=float(np.mean(ratio < 1.25)),
        delta2=float(np.mean(ratio < 1.25 ** 2)),
        delta3=float(np.mean(ratio < 1.25 ** 3)),
    )


def compute_d1(pred_disp, gt_disp, mask):
    """KITTI D1-all: percent of masked pixels whose disparity error exceeds
    both 3 px and 5% of ground truth."""
    pred = _as_array(pred_disp)
    gt = _as_array(gt_disp)
    valid = _as_array(mask).astype(bool)
    if not valid.any():
        raise ValueError("empty validity mask")
    err = np.abs(pred[valid] - gt[valid])
    outlier = (err > 3.0) & (err > 0.05 * gt[valid])
    return float(100.0 * np.mean(outlier))


def postprocess(disp_of_image, disp_of_flipped_image):
    """Fuse a disparity map with the map of the mirrored input.

    The second map is un-mirrored, the two are averaged, and 5%-width
    linear ramps hand each border band entirely to the map that saw that
    side unoccluded.
    """
    d = _as_array(disp_of_image)
    d_flip = _as_array(disp_of_flipped_image)
    if d.shape != d_flip.shape:
        raise ValueError(f"shape mismatch: {d.shape} vs {d_flip.shape}")
    h, w = d.shape
    mirrored = d_flip[:, ::-1]
    mean_d = 0.5 * (d + mirrored)
    ramp = np.linspace(0.0, 1.0, w)[None, :]
    l_mask = np.broadcast_to(1.0 - np.clip(20.0 * (ramp - 0.05), 0.0, 1.0), (h, w))
    r_mask = l_mask[:, ::-1]
    return r_mask * d + l_mask * mirrored + (1.0 - l_mask - r_mask) * mean_d


def format_report(rows):
    """CSV report: one line per sample plus a trailing mean row."""
    lines = [CSV_COLUMNS]
    table = np.array([r.row() for r in rows], dtype=np.float64)
    for row in table:
        lines.append(",".join(f"{v:.6f}" for v in row))
    lines.append(",".join(f"{v:.6f}" for v in table.mean(axis=0)))
    return "\n".join(lines) + "\n"
