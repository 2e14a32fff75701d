"""Synthetic rectified-stereo scenes with exact ground-truth disparity.

Scenes are stacks of fronto-parallel textured rectangles. Each layer's
disparity bf/depth must land on an integer pixel count, so the right image
is an exact column shift of the layer texture and ground truth is
noise-free. Textures extend d columns past the layer's right edge so the
right camera sees real content where its view leaves the left frame.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import netpbm
from .losses import StereoSample

TEXTURE_KINDS = ("checker", "noise", "gradient")


class SceneError(ValueError):
    pass


@dataclass
class Layer:
    depth: float
    texture: str
    rect: tuple  # (top, left, height, width) in left-image pixels


@dataclass
class SceneSpec:
    seed: int
    layers: list
    baseline: float = 0.5
    focal: float = 480.0
    height: int = 64
    width: int = 64

    def __post_init__(self):
        if not self.layers:
            raise SceneError("a scene needs at least one layer")
        depths = [layer.depth for layer in self.layers]
        if any(d <= 0 for d in depths):
            raise SceneError(f"layer depths must be positive: {depths}")
        if len(set(depths)) != len(depths):
            raise SceneError(f"layer depths must be distinct: {depths}")
        for layer in self.layers:
            if layer.texture not in TEXTURE_KINDS:
                raise SceneError(f"unknown texture {layer.texture!r}, pick from {TEXTURE_KINDS}")
            top, left, lh, lw = layer.rect
            if lh < 1 or lw < 1 or top < 0 or left < 0 or top + lh > self.height or left + lw > self.width:
                raise SceneError(f"rect {layer.rect} outside {self.height}x{self.width} image")


def _blur(img):
    """Separable [1, 2, 1]/4 smoothing with edge padding."""
    padded = np.pad(img, ((1, 1), (0, 0), (0, 0)), mode="edge")
    img = 0.25 * padded[:-2] + 0.5 * padded[1:-1] + 0.25 * padded[2:]
    padded = np.pad(img, ((0, 0), (1, 1), (0, 0)), mode="edge")
    return 0.25 * padded[:, :-2] + 0.5 * padded[:, 1:-1] + 0.25 * padded[:, 2:]


def _lerp_grid(grid, height, width):
    """Bilinear resize of a coarse (gh, gw, 3) grid to (height, width, 3)."""
    gh, gw = grid.shape[:2]
    yi = np.linspace(0.0, gh - 1.0, height)
    xi = np.linspace(0.0, gw - 1.0, width)
    y0 = np.floor(yi).astype(np.int64)
    y1 = np.minimum(y0 + 1, gh - 1)
    fy = (yi - y0)[:, None, None]
    rows = grid[y0] * (1.0 - fy) + grid[y1] * fy
    x0 = np.floor(xi).astype(np.int64)
    x1 = np.minimum(x0 + 1, gw - 1)
    fx = (xi - x0)[None, :, None]
    return rows[:, x0] * (1.0 - fx) + rows[:, x1] * fx


# octave wavelength (px) -> amplitude; coarse cells keep structure alive in
# the downsampled pyramid, fine cells pin sub-pixel alignment
_OCTAVES = ((16, 1.0), (8, 0.6), (4, 0.35), (2, 0.2))

_HAZE = np.array([0.82, 0.88, 0.95])  # what distant surfaces fade toward


def _octave_noise(rng, height, width, coarseness=1.0):
    """Zero-mean multi-octave value noise, std roughly 0.28.

    The base octave keeps its wavelength (every surface stays visible in the
    coarsest pyramid images); the finer octaves scale with `coarseness`.
    """
    out = np.zeros((height, width, 3))
    for index, (cell, amp) in enumerate(_OCTAVES):
        if index:
            cell = max(int(round(cell * coarseness)), 2)
        gh = max(height // cell, 1) + 1
        gw = max(width // cell, 1) + 1
        out += amp * _lerp_grid(rng.uniform(-1.0, 1.0, size=(gh, gw, 3)), height, width)
    return out * 0.4


def make_texture(rng, kind, height, width, coarseness=1.0, tint=0.0):
    """An (H, W, 3) texture in [0, 1] drawn from the given generator.

    `coarseness` scales the pattern wavelength (perspective: the same material
    looks finer-grained the farther it is) and `tint` fades toward a haze
    tone, so a single image carries usable depth cues.
    """
    if kind == "checker":
        block = max(int(round(rng.integers(3, 9) * coarseness)), 2)
        c0 = rng.uniform(0.1, 0.9, size=3)
        c1 = rng.uniform(0.1, 0.9, size=3)
        ii, jj = np.indices((height, width))
        pattern = ((ii // block + jj // block) % 2).astype(np.float64)
        tex = _blur(c0 + pattern[..., None] * (c1 - c0))
    elif kind == "noise":
        tex = np.clip(0.5 + _octave_noise(rng, height, width, coarseness), 0.02, 0.98)
    elif kind == "gradient":
        c0 = rng.uniform(0.0, 1.0, size=3)
        c1 = rng.uniform(0.0, 1.0, size=3)
        ramp = np.linspace(0.0, 1.0, width) if width > 1 else np.zeros(1)
        base = np.broadcast_to(c0 + ramp[:, None] * (c1 - c0), (height, width, 3))
        tex = np.clip(base + 0.35 * _octave_noise(rng, height, width, coarseness), 0.0, 1.0)
    else:
        raise SceneError(f"unknown texture kind {kind!r}")
    if tint > 0.0:
        tex = tex * (1.0 - tint) + _HAZE * tint
    return tex


def _layer_disparity(layer, spec):
    d = spec.baseline * spec.focal / layer.depth
    if d > 0.3 * spec.width:
        raise SceneError(
            f"layer at depth {layer.depth} has disparity {d:.2f} px, over 30% of width {spec.width}"
        )
    if abs(d - round(d)) > 1e-9:
        raise SceneError(f"disparity {d!r} px is not an integer; pick depths of the form bf/n")
    return int(round(d))


def render_stereo(spec: SceneSpec) -> StereoSample:
    """Composite layers far-to-near into a rectified pair plus ground truth."""
    h, w = spec.height, spec.width
    rng = np.random.default_rng(spec.seed)
    left = np.zeros((h, w, 3))
    right = np.zeros((h, w, 3))
    gt = np.zeros((h, w))
    for layer in sorted(spec.layers, key=lambda l: -l.depth):
        d = _layer_disparity(layer, spec)
        top, col, lh, lw = layer.rect
        # a full-width layer continues past the right frame edge, so the right
        # eye sees d extra columns of material; a finite patch keeps width lw
        material = lw + d if (col == 0 and lw == w) else lw
        rel = d / (0.3 * w)
        tex = make_texture(rng, layer.texture, lh, material,
                           coarseness=rel * 2.0, tint=0.3 * (1.0 - rel))
        left[top:top + lh, col:col + lw] = tex[:, :lw]
        gt[top:top + lh, col:col + lw] = d
        r0 = max(col - d, 0)
        r1 = min(col - d + material, w)
        right[top:top + lh, r0:r1] = tex[:, r0 - (col - d):r1 - (col - d)]
    return StereoSample(
        left=ad.Tensor(left.transpose(2, 0, 1)[None]),
        right=ad.Tensor(right.transpose(2, 0, 1)[None]),
        baseline=spec.baseline,
        focal=spec.focal,
        gt_disparity=gt,
    )


def nonoccluded_mask(gt_disparity):
    """Left-image pixels of an (H, W) disparity map whose match is visible in
    the right image.

    A pixel is occluded when a nearer layer (larger disparity) claims its
    target column, or its target falls off the left edge. No command calls
    this on purpose: it is the oracle the tests check the renderer, the warp
    and trained disparity against. `eval` masks `gt > 0` instead, because
    perfbench/reference.json pins the eval metrics of a seeded net.
    """
    g = np.asarray(gt_disparity, dtype=np.float64)
    h, w = g.shape
    cols = np.arange(w)
    mask = np.zeros((h, w), dtype=bool)
    for i in range(h):
        d = g[i]
        target = cols - np.rint(d).astype(np.int64)
        valid = target >= 0
        best = np.full(w, -1.0)
        np.maximum.at(best, target[valid], d[valid])
        mask[i] = valid & (d >= best[np.clip(target, 0, w - 1)])
    return mask


def random_scene(seed, width=64, height=64, baseline=0.5, focal=480.0, two_layer=False):
    """A generated SceneSpec: full-frame background, optionally one nearer
    rectangle. Disparities are integers in 4..9 px (depth = bf/d)."""
    rng = np.random.default_rng(seed)
    bf = baseline * focal
    d_bg = int(rng.integers(4, 7))
    layers = [
        Layer(depth=bf / d_bg, texture=("gradient", "noise")[int(rng.integers(0, 2))],
              rect=(0, 0, height, width))
    ]
    if two_layer:
        d_fg = int(rng.integers(d_bg + 1, 10))
        lh = int(rng.integers(height // 4, height // 2 + 1))
        lw = int(rng.integers(width // 4, width // 2 + 1))
        top = int(rng.integers(0, height - lh + 1))
        col = int(rng.integers(0, width - lw + 1))
        layers.append(
            Layer(depth=bf / d_fg, texture=("checker", "noise")[int(rng.integers(0, 2))],
                  rect=(top, col, lh, lw))
        )
    return SceneSpec(seed=seed, layers=layers, baseline=baseline, focal=focal,
                     height=height, width=width)


# ---------------------------------------------------------------------------
# dataset directory layout: {index:06}_left.ppm / _right.ppm / _disp.pgm
# plus manifest.txt carrying calibration and the index list.


def _image_array(t):
    return np.asarray(t.values[0].transpose(1, 2, 0))


def write_dataset(directory, specs):
    os.makedirs(directory, exist_ok=True)
    baseline = focal = None
    lines = []
    for index, spec in enumerate(specs):
        sample = render_stereo(spec)
        if baseline is None:
            baseline, focal = sample.baseline, sample.focal
        elif (baseline, focal) != (sample.baseline, sample.focal):
            raise SceneError("all scenes in a dataset must share calibration")
        netpbm.write_ppm(os.path.join(directory, f"{index:06}_left.ppm"), _image_array(sample.left))
        netpbm.write_ppm(os.path.join(directory, f"{index:06}_right.ppm"), _image_array(sample.right))
        netpbm.write_pgm16(os.path.join(directory, f"{index:06}_disp.pgm"), sample.gt_disparity)
        lines.append(f"{index:06}")
    if baseline is None:
        baseline, focal = 0.5, 480.0
    with open(os.path.join(directory, "manifest.txt"), "w") as f:
        f.write(f"baseline={baseline}\n")
        f.write(f"focal={focal}\n")
        for line in lines:
            f.write(line + "\n")


def read_manifest(directory):
    path = os.path.join(directory, "manifest.txt")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no manifest.txt in {directory}; run gen-data first")
    baseline = focal = None
    indices = []
    with open(path, "rb") as f:
        lines = f.read().splitlines()
    for lineno, raw in enumerate(lines, 1):
        try:
            line = raw.decode("utf-8").strip()
            if "=" in line:
                key, value = line.split("=", 1)
                if key not in ("baseline", "focal"):
                    raise SceneError(f"unknown manifest key {key!r}")
                number = float(value)
                if not 0.0 < number < math.inf:  # NaN fails too
                    raise SceneError(f"{key} must be positive and finite, got {value!r}")
                if key == "baseline":
                    baseline = number
                else:
                    focal = number
            elif line:
                indices.append(line)
        except ValueError as e:  # bad float, bad utf-8, unknown keys and bad calibration alike
            raise SceneError(f"{path}:{lineno}: {e}") from None
    if baseline is None or focal is None:
        raise SceneError(f"{path} is missing baseline=/focal= lines")
    return baseline, focal, indices


def load_dataset(directory):
    """Read every indexed sample back as StereoSamples."""
    baseline, focal, indices = read_manifest(directory)
    samples = []
    for index in indices:
        left = netpbm.read_ppm(os.path.join(directory, f"{index}_left.ppm"))
        right = netpbm.read_ppm(os.path.join(directory, f"{index}_right.ppm"))
        disp = netpbm.read_pgm16(os.path.join(directory, f"{index}_disp.pgm"))
        samples.append(
            StereoSample(
                left=ad.Tensor(left.transpose(2, 0, 1)[None]),
                right=ad.Tensor(right.transpose(2, 0, 1)[None]),
                baseline=baseline,
                focal=focal,
                gt_disparity=disp,
            )
        )
    return samples, baseline, focal
