"""Fusion pyramid depth network.

Encoder halves resolution per level; every level is then augmented with
coordinate channels and fused with its neighbour levels (reshaped to the
level's extents) before decoding. Disparity logits come out at 4 scales from
conv heads; when refinement is enabled the three finest scales' logits are
produced from the next coarser scale's logits by residual sub-pixel
refinement instead of direct heads. The forward pass maps each scale's
logits to disparity once, as d_max * sigmoid. Every conv is 3x3 except the
1x1 fusion projections of the same and the coarser level, and fusion keeps
about half of each level's width for the same level. Includes the flat
`<section>.<field> = value` config syntax and the binary checkpoint format
("FDPT4"), whose header stores the architecture.
"""

from __future__ import annotations

import functools
import math
import os
import re
import struct
from collections import defaultdict
from dataclasses import MISSING, dataclass, fields
from typing import ClassVar

import numpy as np

from . import autodiff as ad


class ConfigError(ValueError):
    """Invalid architecture or training configuration."""


class FieldError(ConfigError):
    """A range check of dataclass `cls` failed; `names` are the fields it
    reads, the one it checks first."""

    def __init__(self, cls, names, message):
        super().__init__(message)
        self.cls = cls
        self.names = names


@dataclass
class ArchConfig:
    num_levels: int = 5
    widths: tuple = (16, 32, 64, 128, 256)
    coordconv: bool = True
    fusion: bool = True
    refinement: bool = True
    d_max: ClassVar[float] = 0.3  # max disparity as a fraction of image width; a constant, not a key

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        if self.num_levels < 3:
            raise FieldError(ArchConfig, ("num_levels",), f"need at least 3 levels, got {self.num_levels}")
        if len(self.widths) != self.num_levels:
            raise FieldError(ArchConfig, ("widths", "num_levels"),
                             f"widths has {len(self.widths)} entries for {self.num_levels} levels")
        if any(w < 1 for w in self.widths):
            raise FieldError(ArchConfig, ("widths",), f"channel widths must be positive: {self.widths}")

    def check_extents(self, height, width):
        """Each encoder level halves the input, so both extents must divide 2^levels."""
        multiple = 1 << self.num_levels
        if height % multiple or width % multiple:
            raise ConfigError(f"input extents {height}x{width} must be divisible by 2^{self.num_levels} = {multiple}")

    def check_images(self, images, where):
        """check_extents for every (H, W, 3) image, naming `where` (a path) in the error."""
        for height, width in {image.shape[:2] for image in images}:
            try:
                self.check_extents(height, width)
            except ConfigError as e:
                raise ConfigError(f"{where}: {e}") from None


# ---------------------------------------------------------------------------
# flat `key = value` config text
#
# A key table maps each config key to (dataclass, field name). The parser and
# the formatter of a value follow from the type of the field's default: bool,
# int, str, or a tuple of int.


def config_keys(section, cls):
    """The key table of a dataclass: `<section>.<field>` for each field with a
    plain default. A field built by a default factory (a nested config) is no key."""
    return {f"{section}.{f.name}": (cls, f.name) for f in fields(cls)
            if f.default is not MISSING}


ARCH_KEYS = config_keys("arch", ArchConfig)


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
        return tuple(type(default[0])(part.strip()) for part in text.split(","))
    return type(default)(text)


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def read_config_lines(lines, keys, where, build):
    """Parse `key = value` lines, each utf-8 bytes, against a key table into
    `build({dataclass: {field: value}})`; a key given twice keeps its last
    value. A `#` at the start of a line or after whitespace starts a comment;
    `runs#1` is a plain value. Errors are ConfigErrors naming `where` and the
    line number; a FieldError from `build` also names the key of the first
    field it reads that the lines set. There is one: the defaults pass every
    check, and a checkpoint header sets every key."""
    values = defaultdict(dict)
    set_at = {}
    for lineno, raw in enumerate(lines, start=1):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ConfigError(f"{where}:{lineno}: {e}") from None
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
        set_at[cls, name] = key, lineno
    try:
        return build(values)
    except FieldError as e:
        key, lineno = next(set_at[e.cls, name] for name in e.names if (e.cls, name) in set_at)
        raise ConfigError(f"{where}:{lineno}: {key}: {e}") from None


def format_config_lines(keys, obj):
    """One `key = value` line per table row, read from `obj`."""
    return "".join(f"{key} = {_format_value(getattr(obj, name))}\n" for key, (_, name) in keys.items())


# ---------------------------------------------------------------------------
# coordinate channels


def coord_channels(height, width):
    """The three hard-coded channels: row ramp, column ramp, radius.

    Ramps span [-1, 1]; the radius sqrt((i - ci)^2 + (j - cj)^2) is measured
    from (ci, cj) = (h/2, w/2) and normalized by the largest corner radius,
    that of corner (0, 0), so it lands in [0, 1]. Returns a (1, 3, h, w) array.
    """
    ci, cj = height / 2.0, width / 2.0
    rows = np.linspace(-1.0, 1.0, height) if height > 1 else np.zeros(1)
    cols = np.linspace(-1.0, 1.0, width) if width > 1 else np.zeros(1)
    ii, jj = np.meshgrid(np.arange(height, dtype=np.float64), np.arange(width, dtype=np.float64), indexing="ij")
    radius = np.sqrt((ii - ci) ** 2 + (jj - cj) ** 2) / np.hypot(ci, cj)
    return np.stack(
        [np.broadcast_to(rows[:, None], (height, width)),
         np.broadcast_to(cols[None, :], (height, width)),
         radius]
    )[None]


def image_batch(images):
    """The (N, 3, H, W) input Tensor of an (N, H, W, 3) stack of images."""
    # a channel-last view, not a contiguous copy: the copy would only cost time, no op's bits depend on the layout
    return ad.Tensor(images.transpose(0, 3, 1, 2))


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


def channel_budgets(width, n_neighbors):
    """Split `width` output channels between the same-level projection and
    its neighbors: same gets round(width/2), the rest is divided evenly.
    Rounding slack folds into the same-level share, and each neighbor is
    capped at width/(n+1) so the same-level slice is never the narrowest."""
    same = round(width / 2)
    same = min(max(same, 1), width - n_neighbors)
    per = min((width - same) // n_neighbors, width // (n_neighbors + 1))
    same = width - per * n_neighbors
    return same, per


class FusionBlock:
    """Eq-style neighbourhood fusion producing the decoder feature at level p."""

    def __init__(self, net, cfg, p, in_widths):
        # in_widths[i-1] = channel count of the (possibly augmented) level-i input
        self.level = p
        name = f"fusion.{p}"
        w_p = cfg.widths[p - 1]
        self.projections = []  # (member level, projection conv)
        if cfg.fusion:
            members = fusion_members(p, cfg.num_levels)
            same, per = channel_budgets(w_p, len(members) - 1)
            if per < 1:
                raise ConfigError(f"level {p} width {w_p} too narrow to split across {len(members)} members")
            # role: (name, output channels, kernel, stride); the finer level is strided down to p
            roles = {p - 1: ("proj_down", per, 3, 2), p: ("proj_same", same, 1, 1), p + 1: ("proj_up", per, 1, 1)}
            for i in members:
                role, cout, kernel, stride = roles[i]
                self.projections.append((i, Conv(net, f"{name}.{role}", in_widths[i - 1], cout, kernel, stride=stride)))
        self.conv = Conv(net, f"{name}.conv", w_p if self.projections else in_widths[p - 1], w_p, 3)

    def __call__(self, inputs):
        """inputs: list of per-level tensors, index i-1 = level i."""
        p = self.level
        if not self.projections:
            return ad.elu(self.conv(inputs[p - 1]))
        # the coarser level is upsampled to p before its 1x1 projection
        parts = [ad.elu(proj(ad.upsample_nearest(inputs[i - 1]) if i > p else inputs[i - 1]))
                 for i, proj in self.projections]
        return ad.elu(self.conv(ad.concat_channels(parts)))


class RefineModule:
    """Residual sub-pixel refinement from scale s+1's logits to scale s's.

    The coarse logits are super-resolved through a 4-channel conv + pixel
    shuffle and corrected by (a) a residual tower over the coarse decoder
    features (32/32/16/4 channels, then shuffle) and (b) a post conv stack on
    the merged logits. The result is the fine scale's logits, which
    `DepthNet.forward` maps to disparity with the one d_max * sigmoid of every
    scale, so zeroed correction tails leave the super-resolved coarse logits
    untouched.
    """

    def __init__(self, net, name, in_ch):
        self.sr = Conv(net, f"{name}.sr", 1, 4, 3)
        self.res1 = Conv(net, f"{name}.res1", in_ch, 32, 3)
        self.res2 = Conv(net, f"{name}.res2", 32, 32, 3)
        self.res3 = Conv(net, f"{name}.res3", 32, 16, 3)
        self.res4 = Conv(net, f"{name}.res4", 16, 4, 3)
        self.post1 = Conv(net, f"{name}.post1", 1, 16, 3)
        self.post2 = Conv(net, f"{name}.post2", 16, 1, 3)

    def start_at_identity(self):
        """Set a fresh module to the identity: sr taps the center (shuffle then
        reduces to nearest upsampling) and both correction tails emit zero."""
        self.sr.weight.values[:] = 0.0
        self.sr.weight.values[:, 0, 1, 1] = 1.0
        self.sr.bias.values[:] = 0.0
        for tail in (self.res4, self.post2):
            tail.weight.values[:] = 0.0
            tail.bias.values[:] = 0.0

    def __call__(self, coarse_logits, features):
        sr_logits = ad.pixel_shuffle(self.sr(coarse_logits))
        tower = ad.elu(self.res1(features))
        tower = ad.elu(self.res2(tower))
        tower = ad.elu(self.res3(tower))
        residual = ad.pixel_shuffle(self.res4(tower))
        merged = ad.add(sr_logits, residual)
        return ad.add(merged, self.post2(ad.elu(self.post1(merged))))


@dataclass
class DisparitySet:
    """The 4 per-scale disparity maps of one `DepthNet.forward`: maps[s] is
    (N, 1, H/2^s, W/2^s) with values in (0, d_max) normalized-width units."""

    maps: list


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
        extra = 3 if cfg.coordconv else 0

        self.encoder = []
        prev = 3
        for p in range(1, L + 1):
            w = cfg.widths[p - 1]
            self.encoder.append(
                (Conv(self, f"encoder.{p}.conv1", prev, w, 3, stride=2), Conv(self, f"encoder.{p}.conv2", w, w, 3))
            )
            prev = w

        aug_widths = [w + extra for w in cfg.widths]
        self.fusion = [FusionBlock(self, cfg, p, aug_widths) for p in range(1, L + 1)]

        # decoder stage p consumes upsampled level-(p+1) stream + augmented
        # fused skip at level p; stage 0 has no skip. With refinement on,
        # scales 2..0 come from refinement, so the decoder stops at level 1.
        self.min_level = 1 if cfg.refinement else 0
        self.decoder = {}
        for p in range(L - 1, self.min_level - 1, -1):
            if p >= 1:
                cin = cfg.widths[p] + cfg.widths[p - 1] + extra
                cout = cfg.widths[p - 1]
            else:
                cin = cfg.widths[0]
                cout = cfg.widths[0]
            self.decoder[p] = Conv(self, f"decoder.{p}.conv", cin, cout, 3)

        feat_width = lambda level: cfg.widths[max(level, 1) - 1]
        self.heads = {}
        self.refine = {}
        if cfg.refinement:
            self.heads[3] = Conv(self, "head.3.conv", feat_width(3), 1, 3)
            for s in (2, 1, 0):
                self.refine[s] = RefineModule(self, f"refine.{s}", feat_width(s + 1))
        else:
            for s in (3, 2, 1, 0):
                self.heads[s] = Conv(self, f"head.{s}.conv", feat_width(s), 1, 3)

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
        self.cfg.check_extents(*image.shape[2:])
        pyramid = []
        x = image
        for conv1, conv2 in self.encoder:
            x = ad.elu(conv2(ad.elu(conv1(x))))
            pyramid.append(x)
        return pyramid

    def _augment(self, feature):
        return coordconv_augment(feature) if self.cfg.coordconv else feature

    def forward(self, image):
        cfg = self.cfg
        L = cfg.num_levels
        pyramid = self.encode(image)
        augmented = [self._augment(f) for f in pyramid]
        fused = [block(augmented) for block in self.fusion]

        feats = {L: fused[L - 1]}
        x = feats[L]
        for p in range(L - 1, self.min_level - 1, -1):
            up = ad.upsample_nearest(x)
            if p >= 1:
                skip = self._augment(fused[p - 1])
                x = ad.elu(self.decoder[p](ad.concat_channels([up, skip])))
            else:
                x = ad.elu(self.decoder[p](up))
            feats[p] = x

        logits = {}
        for s in (3, 2, 1, 0):
            if s in self.refine:
                logits[s] = self.refine[s](logits[s + 1], feats[s + 1])
            else:
                logits[s] = self.heads[s](feats[s])
        maps = [ad.scale(ad.sigmoid(logits[s]), cfg.d_max) for s in range(4)]
        return DisparitySet(maps)


# ---------------------------------------------------------------------------
# checkpoint format: b"FDPT4", a uint32 LE header length, the header (the
# arch.* lines of the config syntax, utf-8), then per parameter (in
# construction order): uint16 LE name length, utf-8 name, 4x uint64 LE
# extents, float64 LE values in C order.

CHECKPOINT_MAGIC = b"FDPT4"


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


def _read_header(path, f, size):
    """The ArchConfig stored after the magic; leaves `f` at the first record.
    A bad header line or range check fails as `... at byte 9: header:<line>: ...`."""
    if f.tell() + 4 > size:
        raise CheckpointError(f"{path}: truncated header length at byte {f.tell()}")
    (hlen,) = struct.unpack("<I", f.read(4))
    off = f.tell()
    if off + hlen > size:
        raise CheckpointError(f"{path}: architecture header at byte {off} runs past end of file")

    def build(values):
        missing = [key for key, (_, name) in ARCH_KEYS.items() if name not in values[ArchConfig]]
        if missing:
            raise ConfigError(f"missing {', '.join(missing)}")
        return ArchConfig(**values[ArchConfig])

    try:
        return read_config_lines(f.read(hlen).splitlines(), ARCH_KEYS, "header", build)
    except ConfigError as e:
        raise CheckpointError(f"{path}: bad architecture header at byte {off}: {e}") from None


def read_checkpoint(path):
    """Read a checkpoint into its ArchConfig and an ordered {name: array} dict.

    Every extent is checked against the file size before anything is
    allocated, and each payload is read straight into its array, so the
    file's bytes are held in memory once."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        cfg = _read_header(path, f, size)
        state = {}
        while (start := f.tell()) < size:
            if start + 2 > size:
                raise CheckpointError(f"{path}: truncated record header at byte {start}")
            (nlen,) = struct.unpack("<H", f.read(2))
            if start + 2 + nlen + 32 > size:
                raise CheckpointError(f"{path}: truncated record at byte {start}")
            try:
                name = f.read(nlen).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: record name at byte {start + 2} is not utf-8") from None
            if name in state:
                raise CheckpointError(f"{path}: duplicate record {name!r} at byte {start}")
            shape = struct.unpack("<4Q", f.read(32))
            off = f.tell()
            count = math.prod(shape)  # Python ints: huge extents cannot wrap to a small count
            past_end = CheckpointError(f"{path}: payload of {name!r} at byte {off} runs past end of file")
            if 8 * count > size - off:
                raise past_end
            values = np.empty(shape, "<f8")
            if f.readinto(values) != 8 * count:  # the file shrank after fstat
                raise past_end
            state[name] = values
    return cfg, state


def load_checkpoint(path):
    """Rebuild a network from a checkpoint alone: the net its header's
    architecture describes, each leaf taking its record's values as it is built."""
    cfg, state = read_checkpoint(path)
    try:
        return DepthNet(cfg, state=state)
    except ConfigError as e:
        raise CheckpointError(f"{path}: records do not match the stored architecture: {e}") from None
