"""Fusion pyramid depth network.

Encoder halves resolution per level; every level is then augmented with
coordinate channels and fused with its neighbour levels (reshaped to the
level's extents) before decoding. Disparity comes out at 4 scales through
sigmoid heads scaled by d_max; when refinement is enabled the three finest
scales are produced by residual sub-pixel refinement instead of direct
heads. Includes the flat `key = value` config syntax and the binary
checkpoint format ("FDPT2"), whose header stores the architecture.
"""

from __future__ import annotations

import functools
import math
import os
import re
import struct
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad


class ConfigError(ValueError):
    """Invalid architecture or training configuration."""


@dataclass
class ArchConfig:
    num_levels: int = 5
    widths: tuple = (16, 32, 64, 128, 256)
    kernel_size: int = 3
    reservation: float = 0.5
    coordconv_enabled: bool = True
    fusion_enabled: bool = True
    refinement_enabled: bool = True
    d_max: float = 0.3

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        if self.num_levels < 3:
            raise ConfigError(f"need at least 3 levels, got {self.num_levels}")
        if len(self.widths) != self.num_levels:
            raise ConfigError(
                f"widths has {len(self.widths)} entries for {self.num_levels} levels"
            )
        if any(w < 1 for w in self.widths):
            raise ConfigError(f"channel widths must be positive: {self.widths}")
        if self.kernel_size % 2 == 0 or self.kernel_size < 1:
            raise ConfigError(f"kernel size must be odd, got {self.kernel_size}")
        if not 0.0 < self.reservation < 1.0:
            raise ConfigError(f"reservation ratio must lie in (0, 1), got {self.reservation}")
        if not 0.0 < self.d_max < math.inf:  # NaN fails too
            raise ConfigError(f"d_max must be positive and finite, got {self.d_max}")


# ---------------------------------------------------------------------------
# flat `key = value` config text
#
# A key table maps each config key to (dataclass, field name). The parser and
# the formatter of a value follow from the type of the field's default: bool,
# int, float, str, or a tuple of int / float.

ARCH_KEYS = {
    "arch.levels": (ArchConfig, "num_levels"),
    "arch.widths": (ArchConfig, "widths"),
    "arch.kernel": (ArchConfig, "kernel_size"),
    "arch.reservation": (ArchConfig, "reservation"),
    "arch.coordconv": (ArchConfig, "coordconv_enabled"),
    "arch.fusion": (ArchConfig, "fusion_enabled"),
    "arch.refinement": (ArchConfig, "refinement_enabled"),
    "arch.d_max": (ArchConfig, "d_max"),
}


_COMMENT = re.compile(r"(^|\s)#.*")


def _parse_value(text, default):
    if isinstance(default, bool):
        lowered = text.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"expected a boolean, got {text!r}")
    if isinstance(default, tuple):
        return tuple(type(default[0])(part.strip()) for part in text.split(",") if part.strip())
    return type(default)(text)


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)  # shortest text that parses back to the same float
    return str(value)


def read_config_lines(lines, keys, where):
    """Parse `key = value` lines against a key table. A `#` at the start of a
    line or after whitespace starts a comment; `runs#1` is a plain value.

    Returns {dataclass: {field: value}}; a key given twice keeps its last
    value. Errors are ConfigErrors naming `where` and the line number.
    """
    values = defaultdict(dict)
    for lineno, raw in enumerate(lines, start=1):
        line = _COMMENT.sub("", raw, count=1).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{where}:{lineno}: expected `key = value`, got {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ConfigError(f"{where}:{lineno}: unknown key {key!r}")
        cls, name = keys[key]
        try:
            # a dataclass field with a plain default keeps it as a class attribute
            values[cls][name] = _parse_value(value, getattr(cls, name))
        except (ValueError, TypeError) as e:
            raise ConfigError(f"{where}:{lineno}: bad value for {key}: {e}") from None
    return values


def format_config_lines(keys, *objects):
    """One `key = value` line per table row, read from the object of that row's
    dataclass. A string value that would not read back unchanged (edge
    whitespace, a line break, a comment mark) is a ConfigError."""
    by_type = {type(obj): obj for obj in objects}
    lines = []
    for key, (cls, name) in keys.items():
        value = getattr(by_type[cls], name)
        if isinstance(value, str) and (value != value.strip() or len(value.splitlines()) > 1
                                       or _COMMENT.search(value)):
            raise ConfigError(f"{key}: {value!r} would not read back unchanged from a config line")
        lines.append(f"{key} = {_format_value(value)}\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# coordinate channels


def coord_channels(height, width):
    """The three hard-coded channels: row ramp, column ramp, radius.

    Ramps span [-1, 1]; the radius sqrt((i - ci)^2 + (j - cj)^2) is measured
    from (ci, cj) = (h/2, w/2) and normalized by the largest corner radius so
    it lands in [0, 1]. Returns a (1, 3, h, w) array.
    """
    ci, cj = height / 2.0, width / 2.0
    rows = np.linspace(-1.0, 1.0, height) if height > 1 else np.zeros(1)
    cols = np.linspace(-1.0, 1.0, width) if width > 1 else np.zeros(1)
    ii, jj = np.meshgrid(np.arange(height, dtype=np.float64), np.arange(width, dtype=np.float64), indexing="ij")
    radius = np.sqrt((ii - ci) ** 2 + (jj - cj) ** 2)
    corners = [(0.0, 0.0), (0.0, width - 1.0), (height - 1.0, 0.0), (height - 1.0, width - 1.0)]
    rmax = max(np.hypot(r - ci, c - cj) for r, c in corners)
    if rmax > 0.0:
        radius = radius / rmax
    return np.stack(
        [np.broadcast_to(rows[:, None], (height, width)),
         np.broadcast_to(cols[None, :], (height, width)),
         radius]
    )[None]


@functools.lru_cache(maxsize=64)
def _coord_tensor(n, height, width):
    base = coord_channels(height, width)
    return ad.Tensor(np.ascontiguousarray(np.broadcast_to(base, (n, 3, height, width))))


def coordconv_augment(feature):
    """Append the i / j / radius channels to a feature map."""
    n, _, h, w = feature.shape
    return ad.concat_channels([feature, _coord_tensor(n, h, w)])


# ---------------------------------------------------------------------------
# layers


class Conv:
    """A conv2d layer whose weight and bias leaves enter the net's parameter table.

    Fresh weights are uniform with bound sqrt(6/fan_in), which keeps
    activation variance roughly level through the ELU stack; biases get the
    usual 1/sqrt(fan_in) bound.
    """

    def __init__(self, net, name, in_ch, out_ch, kernel, stride=1):
        fan_in = in_ch * kernel * kernel
        bound = np.sqrt(6.0 / fan_in)
        self.name = name
        self.stride = stride
        self.weight = net.leaf(f"{name}.weight", (out_ch, in_ch, kernel, kernel),
                               lambda rng, shape: rng.uniform(-bound, bound, size=shape))
        self.bias = net.leaf(f"{name}.bias", (1, out_ch, 1, 1),
                             lambda rng, shape: rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(fan_in))

    def __call__(self, x):
        return ad.conv2d(x, self.weight, self.bias, stride=self.stride)


def fusion_members(p, num_levels):
    """Level indices entering the fusion at level p: p-1, p, p+1 clipped to range."""
    return [i for i in (p - 1, p, p + 1) if 1 <= i <= num_levels]


def channel_budgets(width, ratio, n_neighbors):
    """Split `width` output channels between the same-level projection and
    its neighbors: same gets round(ratio*width), the rest is divided evenly.
    Rounding slack folds into the same-level share, and each neighbor is
    capped at width/(n+1) so the same-level slice is never the narrowest."""
    if n_neighbors == 0:
        return width, 0
    same = int(round(width * ratio))
    same = min(max(same, 1), width - n_neighbors)
    per = min((width - same) // n_neighbors, width // (n_neighbors + 1))
    same = width - per * n_neighbors
    return same, per


class FusionBlock:
    """Eq-style neighbourhood fusion producing the decoder feature at level p."""

    def __init__(self, net, cfg, p, in_widths):
        # in_widths[i-1] = channel count of the (possibly augmented) level-i input
        self.level = p
        self.cfg = cfg
        name = f"fusion.{p}"
        w_p = cfg.widths[p - 1]
        k = cfg.kernel_size
        if cfg.fusion_enabled:
            self.members = fusion_members(p, cfg.num_levels)
            same, per = channel_budgets(w_p, cfg.reservation, len(self.members) - 1)
            if per < 1 and len(self.members) > 1:
                raise ConfigError(f"level {p} width {w_p} too narrow to split across {len(self.members)} members")
            self.proj_down = None
            self.proj_same = None
            self.proj_up = None
            for i in self.members:
                cin = in_widths[i - 1]
                if i == p - 1:
                    self.proj_down = Conv(net, f"{name}.proj_down", cin, per, k, stride=2)
                elif i == p:
                    self.proj_same = Conv(net, f"{name}.proj_same", cin, same, 1)
                else:
                    self.proj_up = Conv(net, f"{name}.proj_up", cin, per, 1)
            self.conv = Conv(net, f"{name}.conv", w_p, w_p, k)
        else:
            self.members = [p]
            self.proj_down = self.proj_same = self.proj_up = None
            self.conv = Conv(net, f"{name}.conv", in_widths[p - 1], w_p, k)

    def __call__(self, inputs):
        """inputs: list of per-level tensors, index i-1 = level i."""
        p = self.level
        if not self.cfg.fusion_enabled:
            return ad.elu(self.conv(inputs[p - 1]))
        parts = []
        for i in self.members:
            feature = inputs[i - 1]
            if i == p - 1:
                parts.append(ad.elu(self.proj_down(feature)))
            elif i == p:
                parts.append(ad.elu(self.proj_same(feature)))
            else:
                parts.append(ad.elu(self.proj_up(ad.upsample_nearest(feature, 2))))
        return ad.elu(self.conv(ad.concat_channels(parts)))


class RefineModule:
    """Residual sub-pixel refinement from scale s+1 to scale s.

    The coarse disparity is mapped back to logit space, super-resolved
    through a 4-channel conv + pixel shuffle, and corrected by (a) a
    residual tower over the coarse decoder features (32/32/16/4 channels,
    then shuffle) and (b) a post conv stack on the merged logits. One final
    sigmoid rescale restores the (0, d_max) range, so zeroed correction
    branches leave the super-resolved coarse path untouched.
    """

    LOGIT_MARGIN = 1e-12

    def __init__(self, net, name, in_ch, kernel):
        self.name = name
        self.sr = Conv(net, f"{name}.sr", 1, 4, kernel)
        self.res1 = Conv(net, f"{name}.res1", in_ch, 32, kernel)
        self.res2 = Conv(net, f"{name}.res2", 32, 32, kernel)
        self.res3 = Conv(net, f"{name}.res3", 32, 16, kernel)
        self.res4 = Conv(net, f"{name}.res4", 16, 4, kernel)
        self.post1 = Conv(net, f"{name}.post1", 1, 16, kernel)
        self.post2 = Conv(net, f"{name}.post2", 16, 1, kernel)

    def start_at_identity(self):
        """Set a fresh module to the identity: sr taps the center (shuffle then
        reduces to nearest upsampling) and both correction tails emit zero."""
        center = self.sr.weight.shape[2] // 2
        self.sr.weight.values[:] = 0.0
        self.sr.weight.values[:, 0, center, center] = 1.0
        self.sr.bias.values[:] = 0.0
        for tail in (self.res4, self.post2):
            tail.weight.values[:] = 0.0
            tail.bias.values[:] = 0.0

    def __call__(self, coarse_disp, features, d_max):
        frac = ad.clamp(ad.scale(coarse_disp, 1.0 / d_max), self.LOGIT_MARGIN, 1.0 - self.LOGIT_MARGIN)
        logits = ad.sub(ad.log(frac), ad.log(ad.sub(ad.scalar(1.0), frac)))
        sr_logits = ad.pixel_shuffle(self.sr(logits), 2)
        tower = ad.elu(self.res1(features))
        tower = ad.elu(self.res2(tower))
        tower = ad.elu(self.res3(tower))
        residual = ad.pixel_shuffle(self.res4(tower), 2)
        merged = ad.add(sr_logits, residual)
        refined = ad.add(merged, self.post2(ad.elu(self.post1(merged))))
        return ad.scale(ad.sigmoid(refined), d_max)


@dataclass
class DisparitySet:
    """Per-scale disparity maps; maps[s] has extents (H/2^s, W/2^s) and
    values in (0, d_max) normalized-width units."""

    maps: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.maps) != 4:
            raise ConfigError(f"DisparitySet carries exactly 4 scales, got {len(self.maps)}")
        n, c, h, w = self.maps[0].shape
        for s, m in enumerate(self.maps):
            if m.shape != (n, 1, h >> s, w >> s):
                raise ConfigError(f"scale {s} has shape {m.shape}, expected {(n, 1, h >> s, w >> s)}")


class DepthNet:
    """Full pipeline: encode, coordconv, fuse, decode, refine.

    Building the net fills its parameter table in construction order: a fresh
    net draws each leaf from `seed`; given `state` ({name: array}, as
    `read_checkpoint` returns), each leaf takes its record's array instead.
    """

    def __init__(self, cfg: ArchConfig, seed=0, state=None):
        self.cfg = cfg
        self._params = []
        self._state = state
        self._random = np.random.default_rng(seed) if state is None else None
        L = cfg.num_levels
        k = cfg.kernel_size
        extra = 3 if cfg.coordconv_enabled else 0

        self.encoder = []
        prev = 3
        for p in range(1, L + 1):
            w = cfg.widths[p - 1]
            self.encoder.append(
                (Conv(self, f"encoder.{p}.conv1", prev, w, k, stride=2), Conv(self, f"encoder.{p}.conv2", w, w, k))
            )
            prev = w

        aug_widths = [w + extra for w in cfg.widths]
        self.fusion = [FusionBlock(self, cfg, p, aug_widths) for p in range(1, L + 1)]

        # decoder stage p consumes upsampled level-(p+1) stream + augmented
        # fused skip at level p; stage 0 has no skip. With refinement on,
        # scales 2..0 come from refinement, so the decoder stops at level 1.
        self.min_level = 1 if cfg.refinement_enabled else 0
        self.decoder = {}
        for p in range(L - 1, self.min_level - 1, -1):
            if p >= 1:
                cin = cfg.widths[p] + cfg.widths[p - 1] + extra
                cout = cfg.widths[p - 1]
            else:
                cin = cfg.widths[0]
                cout = cfg.widths[0]
            self.decoder[p] = Conv(self, f"decoder.{p}.conv", cin, cout, k)

        feat_width = lambda level: cfg.widths[max(level, 1) - 1]
        self.heads = {}
        self.refine = {}
        if cfg.refinement_enabled:
            self.heads[3] = Conv(self, "head.3.conv", feat_width(3), 1, k)
            for s in (2, 1, 0):
                self.refine[s] = RefineModule(self, f"refine.{s}", feat_width(s + 1), k)
        else:
            for s in (3, 2, 1, 0):
                self.heads[s] = Conv(self, f"head.{s}.conv", feat_width(s), 1, k)

        if state is None:
            for module in self.refine.values():
                module.start_at_identity()
        elif len(state) > len(self._params):  # every leaf found its record, so the rest are extra
            names = {name for name, _ in self._params}
            raise ConfigError(f"unexpected record {next(n for n in state if n not in names)!r}")
        del self._state, self._random

    def leaf(self, name, shape, draw):
        """A trainable leaf appended to the parameter table: the record `name`
        of the loaded state, or `draw(rng, shape)` for a fresh net."""
        if self._state is None:
            values = draw(self._random, shape)
        elif name not in self._state:
            raise ConfigError(f"missing record {name!r}")
        else:
            values = self._state[name]
            if values.shape != shape:
                raise ConfigError(f"record {name!r} has shape {values.shape}, expected {shape}")
        tensor = ad.Tensor(values, requires_grad=True)
        self._params.append((name, tensor))
        return tensor

    def parameters(self):
        """The (name, leaf) table in construction order."""
        return list(self._params)

    # -- evaluation ----------------------------------------------------

    def encode(self, image):
        L = self.cfg.num_levels
        n, c, h, w = image.shape
        multiple = 1 << L
        if h % multiple or w % multiple:
            raise ConfigError(f"input extents {h}x{w} must be divisible by 2^{L} = {multiple}")
        pyramid = []
        x = image
        for conv1, conv2 in self.encoder:
            x = ad.elu(conv2(ad.elu(conv1(x))))
            pyramid.append(x)
        return pyramid

    def _augment(self, feature):
        return coordconv_augment(feature) if self.cfg.coordconv_enabled else feature

    def forward(self, image):
        cfg = self.cfg
        L = cfg.num_levels
        pyramid = self.encode(image)
        augmented = [self._augment(f) for f in pyramid]
        fused = [block(augmented) for block in self.fusion]

        feats = {L: fused[L - 1]}
        x = feats[L]
        for p in range(L - 1, self.min_level - 1, -1):
            up = ad.upsample_nearest(x, 2)
            if p >= 1:
                skip = self._augment(fused[p - 1])
                x = ad.elu(self.decoder[p](ad.concat_channels([up, skip])))
            else:
                x = ad.elu(self.decoder[p](up))
            feats[p] = x

        def head_out(s):
            return ad.scale(ad.sigmoid(self.heads[s](feats[s])), cfg.d_max)

        if cfg.refinement_enabled:
            d3 = head_out(3)
            d2 = self.refine[2](d3, feats[3], cfg.d_max)
            d1 = self.refine[1](d2, feats[2], cfg.d_max)
            d0 = self.refine[0](d1, feats[1], cfg.d_max)
            maps = [d0, d1, d2, d3]
        else:
            maps = [head_out(s) for s in (0, 1, 2, 3)]
        return DisparitySet(maps)


# ---------------------------------------------------------------------------
# checkpoint format: b"FDPT2", a uint32 LE header length, the header (the
# arch.* lines of the config syntax, utf-8), then per parameter (in
# construction order): uint16 LE name length, utf-8 name, 4x uint64 LE
# extents, float64 LE values in C order.

CHECKPOINT_MAGIC = b"FDPT2"


class CheckpointError(IOError):
    pass


def save_checkpoint(path, net):
    """Write through a sibling temp file and `os.replace`, so a failed save
    leaves any earlier checkpoint at `path` intact."""
    header = format_config_lines(ARCH_KEYS, net.cfg).encode("utf-8")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", len(header)))
            f.write(header)
            for name, t in net.parameters():
                encoded = name.encode("utf-8")
                f.write(struct.pack("<H", len(encoded)))
                f.write(encoded)
                f.write(struct.pack("<4Q", *t.values.shape))
                f.write(t.values.astype("<f8", copy=False).tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read_header(path, blob):
    """The ArchConfig stored after the magic, and the offset of the first record."""
    off = len(CHECKPOINT_MAGIC)
    if off + 4 > len(blob):
        raise CheckpointError(f"{path}: truncated header length at byte {off}")
    (hlen,) = struct.unpack_from("<I", blob, off)
    off += 4
    if off + hlen > len(blob):
        raise CheckpointError(f"{path}: architecture header at byte {off} runs past end of file")
    try:
        text = blob[off:off + hlen].decode("utf-8")
        fields = read_config_lines(text.splitlines(), ARCH_KEYS, "header")[ArchConfig]
        missing = [key for key, (_, name) in ARCH_KEYS.items() if name not in fields]
        if missing:
            raise ConfigError(f"missing {', '.join(missing)}")
        cfg = ArchConfig(**fields)
    except (UnicodeDecodeError, ConfigError) as e:
        raise CheckpointError(f"{path}: bad architecture header at byte {off}: {e}") from None
    return cfg, off + hlen


def read_checkpoint(path):
    """Read a checkpoint into its ArchConfig and an ordered {name: array} dict."""
    with open(path, "rb") as f:
        blob = f.read()
    magic = blob[:len(CHECKPOINT_MAGIC)]
    if magic == b"FDPT1":
        raise CheckpointError(f"{path}: FDPT1 checkpoint carries no architecture header; only FDPT2 loads")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    cfg, off = _read_header(path, blob)
    state = {}
    while off < len(blob):
        start = off
        if off + 2 > len(blob):
            raise CheckpointError(f"{path}: truncated record header at byte {start}")
        (nlen,) = struct.unpack_from("<H", blob, off)
        off += 2
        if off + nlen + 32 > len(blob):
            raise CheckpointError(f"{path}: truncated record at byte {start}")
        try:
            name = blob[off:off + nlen].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: record name at byte {off} is not utf-8") from None
        if name in state:
            raise CheckpointError(f"{path}: duplicate record {name!r} at byte {start}")
        off += nlen
        shape = struct.unpack_from("<4Q", blob, off)
        off += 32
        count = math.prod(shape)  # Python ints: huge extents cannot wrap to a small count
        if 8 * count > len(blob) - off:
            raise CheckpointError(f"{path}: payload of {name!r} at byte {off} runs past end of file")
        state[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape).copy()
        off += 8 * count
    return cfg, state


def load_checkpoint(path):
    """Rebuild a network from a checkpoint alone: the net its header's
    architecture describes, each leaf taking its record's values as it is built."""
    cfg, state = read_checkpoint(path)
    try:
        return DepthNet(cfg, state=state)
    except ConfigError as e:
        raise CheckpointError(f"{path}: records do not match the stored architecture: {e}") from None
