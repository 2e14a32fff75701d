"""Reverse-mode autodiff on rank-4 float64 arrays.

Every value is a (N, C, H, W) numpy array wrapped in a Tensor. Ops record
their parents and a closure that maps the output gradient to parent
gradients; backward() walks the resulting graph once in reverse topological
order. Scalars (losses, weights applied as python floats) live in shape
(1, 1, 1, 1).
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class FiniteError(ArithmeticError):
    """A NaN or infinity appeared in a value or gradient."""


def _check_finite(values, where):
    if not np.isfinite(values).all():
        raise FiniteError(f"non-finite values in {where}")


class Tensor:
    """A rank-4 float64 array plus the tape bookkeeping to differentiate it.

    Leaf tensors created with requires_grad=True accumulate into .grad on
    each backward() call; everything produced by an op carries a _vjp
    closure instead and never stores a gradient itself.
    """

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_vjp", "_op")

    def __init__(self, values, requires_grad=False, _parents=(), _vjp=None, _op="leaf"):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 4:
            raise ShapeError(f"tensors are rank-4 (N, C, H, W); got shape {values.shape}")
        self.values = values
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = _parents
        self._vjp = _vjp
        self._op = _op

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        if self.values.size != 1:
            raise ShapeError(f"item() needs a single element, shape is {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{flag})"

    # Arithmetic sugar; python scalars go through the cheap scale/shift path.
    def __add__(self, other):
        if isinstance(other, (int, float)):
            return shift(self, float(other))
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return shift(self, -float(other))
        return sub(self, other)

    def __rsub__(self, other):
        return shift(scale(self, -1.0), float(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, 1.0 / float(other))
        return div(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def scalar(value, requires_grad=False):
    """A (1,1,1,1) tensor holding one number."""
    return Tensor(np.full((1, 1, 1, 1), value, dtype=np.float64), requires_grad=requires_grad)


def _tracked(values, parents, vjp, op):
    """Build an op output; drops the tape if no parent needs gradients."""
    _check_finite(values, op)
    if any(p.requires_grad for p in parents):
        return Tensor(values, requires_grad=True, _parents=tuple(parents), _vjp=vjp, _op=op)
    return Tensor(values, _op=op)


def backward(loss):
    """Accumulate d(loss)/d(leaf) into .grad for every reachable leaf.

    loss must be a scalar-shaped (1,1,1,1) tensor. Repeated calls keep
    accumulating; callers set each leaf's .grad to None between steps.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.shape != (1, 1, 1, 1):
        raise ShapeError(f"backward needs a scalar (1,1,1,1) loss, got {loss.shape}")

    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    grads = {id(loss): np.ones((1, 1, 1, 1), dtype=np.float64)}
    for node in reversed(order):
        grad = grads.pop(id(node), None)
        if grad is None:
            continue
        if node._vjp is None:
            if node.requires_grad:
                _check_finite(grad, "gradient")
                if node.grad is None:
                    node.grad = np.zeros_like(node.values)
                node.grad += grad
            continue
        for parent, pgrad in zip(node._parents, node._vjp(grad)):
            if pgrad is None or not parent.requires_grad:
                continue
            held = grads.get(id(parent))
            grads[id(parent)] = pgrad if held is None else held + pgrad


# ---------------------------------------------------------------------------
# elementwise and broadcast arithmetic


def _broadcastable(a, b):
    return all(x == y or x == 1 or y == 1 for x, y in zip(a, b))


def _unbroadcast(grad, shape):
    """Sum grad back down to `shape` along the axes that were broadcast."""
    if grad.shape == shape:
        return grad
    axes = tuple(i for i in range(4) if shape[i] == 1 and grad.shape[i] != 1)
    return grad.sum(axis=axes, keepdims=True)


def _binary(a, b, op):
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise TypeError(f"{op} expects Tensor operands")
    if not _broadcastable(a.shape, b.shape):
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")


def add(a, b):
    _binary(a, b, "add")
    out = a.values + b.values

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _tracked(out, (a, b), vjp, "add")


def sub(a, b):
    _binary(a, b, "sub")
    out = a.values - b.values

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _tracked(out, (a, b), vjp, "sub")


def mul(a, b):
    _binary(a, b, "mul")
    out = a.values * b.values

    def vjp(g):
        return _unbroadcast(g * b.values, a.shape), _unbroadcast(g * a.values, b.shape)

    return _tracked(out, (a, b), vjp, "mul")


def div(a, b):
    _binary(a, b, "div")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.values / b.values

    def vjp(g):
        ga = g / b.values
        gb = -g * out / b.values
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _tracked(out, (a, b), vjp, "div")


def scale(x, factor):
    """x * factor for a python scalar factor."""
    factor = float(factor)
    out = x.values * factor

    def vjp(g):
        return (g * factor,)

    return _tracked(out, (x,), vjp, "scale")


def shift(x, offset):
    """x + offset for a python scalar offset."""
    out = x.values + float(offset)

    def vjp(g):
        return (g,)

    return _tracked(out, (x,), vjp, "shift")


def elu(x):
    """Exponential linear unit: x for x>0, exp(x)-1 otherwise."""
    v = x.values
    neg = np.expm1(np.minimum(v, 0.0))
    out = np.where(v > 0.0, v, neg)
    slope = np.where(v > 0.0, 1.0, neg + 1.0)

    def vjp(g):
        return (g * slope,)

    return _tracked(out, (x,), vjp, "elu")


def sigmoid(x):
    v = x.values
    out = np.empty_like(v)
    pos = v >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ez = np.exp(v[~pos])
    out[~pos] = ez / (1.0 + ez)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _tracked(out, (x,), vjp, "sigmoid")


def absolute(x):
    out = np.abs(x.values)
    sign = np.sign(x.values)

    def vjp(g):
        return (g * sign,)

    return _tracked(out, (x,), vjp, "abs")


def exp(x):
    out = np.exp(x.values)

    def vjp(g):
        return (g * out,)

    return _tracked(out, (x,), vjp, "exp")


def log(x):
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(x.values)

    def vjp(g):
        return (g / x.values,)

    return _tracked(out, (x,), vjp, "log")


def clamp(x, lo, hi):
    """Clip to [lo, hi]; gradient is zero where the clip is active."""
    if not lo < hi:
        raise ValueError(f"clamp needs lo < hi, got [{lo}, {hi}]")
    out = np.clip(x.values, lo, hi)
    interior = (x.values > lo) & (x.values < hi)

    def vjp(g):
        return (g * interior,)

    return _tracked(out, (x,), vjp, "clamp")


def sqrt(x):
    out = np.sqrt(x.values)

    def vjp(g):
        return (0.5 * g / out,)

    return _tracked(out, (x,), vjp, "sqrt")


# ---------------------------------------------------------------------------
# reductions and layout ops


def reduce_mean(x, axes=None):
    """Mean over `axes` (all four when None); reduced extents stay as 1 so
    every value in the graph remains rank-4."""
    axes = tuple(range(4)) if axes is None else tuple(sorted(set(axes)))
    count = 1
    for ax in axes:
        count *= x.shape[ax]
    out = x.values.mean(axis=axes, keepdims=True)

    def vjp(g):
        return (np.broadcast_to(g, x.shape) / count,)

    return _tracked(out, (x,), vjp, "mean")


def concat_channels(parts):
    """Concatenate along the channel axis; all other extents must match."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat_channels needs at least one tensor")
    n, _, h, w = parts[0].shape
    for p in parts[1:]:
        if (p.shape[0], p.shape[2], p.shape[3]) != (n, h, w):
            raise ShapeError(f"concat_channels: mismatched extents {p.shape} vs {parts[0].shape}")
    out = np.concatenate([p.values for p in parts], axis=1)
    splits = np.cumsum([p.shape[1] for p in parts])[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=1))

    return _tracked(out, tuple(parts), vjp, "concat")


def crop(x, top, bottom, left, right):
    """Keep rows [top, bottom) and columns [left, right)."""
    _, _, h, w = x.shape
    if not (0 <= top < bottom <= h and 0 <= left < right <= w):
        raise ShapeError(f"crop window [{top}:{bottom}, {left}:{right}] outside {x.shape}")
    out = x.values[:, :, top:bottom, left:right].copy()

    def vjp(g):
        full = np.zeros_like(x.values)
        full[:, :, top:bottom, left:right] = g
        return (full,)

    return _tracked(out, (x,), vjp, "crop")


def upsample_nearest(x, factor):
    """Nearest-neighbour upsampling by an integer factor on H and W."""
    factor = int(factor)
    if factor < 1:
        raise ShapeError(f"upsample factor must be >= 1, got {factor}")
    out = np.repeat(np.repeat(x.values, factor, axis=2), factor, axis=3)
    n, c, h, w = x.shape

    def vjp(g):
        return (g.reshape(n, c, h, factor, w, factor).sum(axis=(3, 5)),)

    return _tracked(out, (x,), vjp, "upsample_nearest")


def avg_pool(x, kernel, stride):
    """Average pooling, valid windows only."""
    kernel, stride = int(kernel), int(stride)
    n, c, h, w = x.shape
    if kernel > h or kernel > w:
        raise ShapeError(f"pool kernel {kernel} exceeds spatial extents of {x.shape}")
    windows = np.lib.stride_tricks.sliding_window_view(x.values, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    out = windows.mean(axis=(-2, -1))
    ho, wo = out.shape[2], out.shape[3]
    inv = 1.0 / (kernel * kernel)

    def vjp(g):
        gx = np.zeros_like(x.values)
        piece = g * inv
        for ki in range(kernel):
            for kj in range(kernel):
                gx[:, :, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride] += piece
        return (gx,)

    return _tracked(np.ascontiguousarray(out), (x,), vjp, "avg_pool")


def pixel_shuffle(x, factor):
    """Rearrange (N, C*r^2, H, W) -> (N, C, H*r, W*r).

    Channel c*r*r + dy*r + dx of the input lands at output pixel
    (h*r + dy, w*r + dx) of channel c.
    """
    r = int(factor)
    n, c, h, w = x.shape
    if c % (r * r) != 0:
        raise ShapeError(f"pixel_shuffle needs channels divisible by {r * r}, got {c}")
    co = c // (r * r)
    out = (
        x.values.reshape(n, co, r, r, h, w)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(n, co, h * r, w * r)
    )

    def vjp(g):
        back = (
            g.reshape(n, co, h, r, w, r)
            .transpose(0, 1, 3, 5, 2, 4)
            .reshape(n, c, h, w)
        )
        return (np.ascontiguousarray(back),)

    return _tracked(np.ascontiguousarray(out), (x,), vjp, "pixel_shuffle")


# ---------------------------------------------------------------------------
# convolution


def conv2d(x, weight, bias=None, stride=1, padding=None):
    """2-D cross-correlation with square odd kernels.

    Args:
        x: input (N, C, H, W).
        weight: filters (O, C, k, k), k odd.
        bias: optional (1, O, 1, 1), added per output channel.
        stride: 1 or 2.
        padding: zero-pad width per border, >= 0; defaults to k // 2.

    Output spatial extents follow (H + 2p - k) // stride + 1. The input is
    lowered channel-major to cols (N, C*k*k, Ho*Wo), so `wmat @ cols` is
    already the output in (N, O, Ho, Wo) order. The VJP closure keeps cols,
    and wmat (O, C*k*k) as a view of the weight; for an unpadded stride-1
    1x1 conv, cols is itself a view of x's values rather than a copy.
    """
    n, c, h, w = x.shape
    o, cw, kh, kw = weight.shape
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"kernel must be square and odd, got {kh}x{kw}")
    if cw != c:
        raise ShapeError(f"weight expects {cw} input channels, input has {c}")
    if stride not in (1, 2):
        raise ShapeError(f"stride must be 1 or 2, got {stride}")
    if bias is not None and bias.shape != (1, o, 1, 1):
        raise ShapeError(f"bias must be (1, {o}, 1, 1), got {bias.shape}")
    k = kh
    p = k // 2 if padding is None else int(padding)
    if p < 0:
        raise ShapeError(f"padding must be >= 0, got {padding}")
    ho = (h + 2 * p - k) // stride + 1
    wo = (w + 2 * p - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv output would be empty for input {x.shape}, kernel {k}, stride {stride}")

    padded = np.pad(x.values, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.values
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(2, 3))
    # (N, C, Ho, Wo, k, k) -> (N, C*k*k, Ho*Wo); the reshape does the copy
    cols = windows[:, :, ::stride, ::stride].transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, ho * wo)
    wmat = weight.values.reshape(o, c * k * k)
    out = np.matmul(wmat, cols).reshape(n, o, ho, wo)
    if bias is not None:
        out += bias.values

    def vjp(g):
        gmat = g.reshape(n, o, ho * wo)
        gw = np.tensordot(gmat, cols, axes=([0, 2], [0, 2])).reshape(o, c, k, k)
        gcols = np.matmul(wmat.T, gmat).reshape(n, c, k, k, ho, wo)
        gpad = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=np.float64)
        for ki in range(k):
            for kj in range(k):
                gpad[:, :, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride] += gcols[:, :, ki, kj]
        gx = gpad[:, :, p:p + h, p:p + w] if p else gpad
        if bias is None:
            return gx, gw
        gb = g.sum(axis=(0, 2, 3)).reshape(1, o, 1, 1)
        return gx, gw, gb

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _tracked(out, parents, vjp, "conv2d")


# ---------------------------------------------------------------------------
# horizontal bilinear warp


def grid_sample_bilinear(source, offsets):
    """Sample `source` at horizontally displaced positions.

    Args:
        source: (N, C, H, W) image or feature map.
        offsets: (N, 1, H, W) horizontal displacement as a fraction of
            image width; +0.1 reads 0.1*W columns to the right.

    Positions are clamped to the border, so gradients w.r.t. offsets vanish
    where sampling has saturated. All-zero offsets reproduce the source
    bit for bit.
    """
    n, c, h, w = source.shape
    if offsets.shape != (n, 1, h, w):
        raise ShapeError(f"offsets must be ({n}, 1, {h}, {w}), got {offsets.shape}")

    base = np.arange(w, dtype=np.float64).reshape(1, 1, 1, w)
    pos_raw = base + offsets.values * w
    pos = np.clip(pos_raw, 0.0, w - 1.0)
    j0 = np.clip(np.floor(pos).astype(np.int64), 0, w - 1)
    j1 = np.minimum(j0 + 1, w - 1)
    frac = pos - j0

    idx0 = np.broadcast_to(j0, (n, c, h, w))
    idx1 = np.broadcast_to(j1, (n, c, h, w))
    left = np.take_along_axis(source.values, idx0, axis=3)
    right = np.take_along_axis(source.values, idx1, axis=3)
    out = left + frac * (right - left)

    inside = (pos_raw > 0.0) & (pos_raw < w - 1.0)

    def vjp(g):
        gsrc = np.zeros_like(source.values)
        flat = gsrc.reshape(n * c * h, w)
        rows = np.broadcast_to(np.arange(n * c * h)[:, None], (n * c * h, w))
        gl = (g * (1.0 - frac)).reshape(n * c * h, w)
        gr = (g * frac).reshape(n * c * h, w)
        np.add.at(flat, (rows, idx0.reshape(n * c * h, w)), gl)
        np.add.at(flat, (rows, idx1.reshape(n * c * h, w)), gr)
        goff = ((right - left) * g).sum(axis=1, keepdims=True) * w * inside
        return gsrc, goff

    return _tracked(out, (source, offsets), vjp, "grid_sample")
