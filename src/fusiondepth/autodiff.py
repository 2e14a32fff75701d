"""Reverse-mode autodiff on rank-4 float64 arrays.

Every value is a (N, C, H, W) numpy array wrapped in a Tensor: a batch of N
images, such as a stereo pair whose halves swap_eyes exchanges; conv2d runs
one forward GEMM per image, so an image's values do not depend on its batch.
Ops record their parents and a closure that maps the output gradient to parent
gradients; backward() walks the resulting graph once in reverse topological
order and returns the gradient of each trainable leaf it reaches. It consumes
the graph as it goes: once an op's closure has run, the op drops it and its
parents, so each activation is freed after its last consumer's closure, and a
graph is differentiated once. A closure keeps its op's parents, output and
index data, and derives slopes, signs, masks and conv2d's im2col columns of x
and of g when backward runs; only grid_sample_bilinear keeps a gathered
array, the difference of its two taps, as a rebuild would gather twice. So an
op's input values must not be written between its forward and backward();
Adam writes the leaves after it.
Binary ops take operands of equal shape; nothing broadcasts. Scalars (losses)
live in shape (1, 1, 1, 1).
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class FiniteError(ArithmeticError):
    """A NaN or infinity appeared in a value or gradient."""


class SpentGraphError(RuntimeError):
    """backward() reached an op whose closure an earlier backward() ran."""


def _check_finite(values, where):
    if not np.isfinite(values).all():
        raise FiniteError(f"non-finite values in {where}")


class Tensor:
    """A rank-4 float64 array plus the tape bookkeeping to differentiate it.

    A leaf created with requires_grad=True is trainable: backward() returns
    its gradient. Everything produced by an op from a trainable input carries
    a _vjp closure until backward() runs it; no tensor stores a gradient.
    """

    __slots__ = ("values", "requires_grad", "_parents", "_vjp", "_op")

    def __init__(self, values, requires_grad=False, _parents=(), _vjp=None, _op="leaf"):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 4:
            raise ShapeError(f"tensors are rank-4 (N, C, H, W); got shape {values.shape}")
        self.values = values
        self.requires_grad = requires_grad
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

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return shift(scale(self, -1.0), float(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__


def _tracked(values, parents, vjp, op):
    """Build an op output; drops the tape if no parent needs gradients."""
    _check_finite(values, op)
    if any(p.requires_grad for p in parents):
        return Tensor(values, requires_grad=True, _parents=tuple(parents), _vjp=vjp, _op=op)
    return Tensor(values, _op=op)


def _spent(g):
    raise SpentGraphError("this graph was already differentiated; backward() consumes it")


def backward(loss):
    """d(loss)/d(leaf) for every trainable leaf the loss reaches.

    loss must be a scalar-shaped (1,1,1,1) tensor. Returns a dict from each
    reached leaf with requires_grad=True to its gradient; an unreached leaf
    has no entry. The arrays are for reading: two leaves of one `add` may
    share an array. The graph is spent afterwards: each op that it ran
    drops its closure and parents, and a second call that reaches one raises
    SpentGraphError. Build the graph again to differentiate it again.
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
    leaf_grads = {}
    while order:
        node = order.pop()
        grad = grads.pop(id(node), None)
        if grad is None:
            continue
        vjp, parents = node._vjp, node._parents
        if vjp is None:
            if node.requires_grad:
                _check_finite(grad, "gradient")
                leaf_grads[node] = grad
            continue
        node._vjp, node._parents = _spent, ()
        for parent, pgrad in zip(parents, vjp(grad)):
            if pgrad is None or not parent.requires_grad:
                continue
            held = grads.get(id(parent))
            grads[id(parent)] = pgrad if held is None else held + pgrad
    return leaf_grads


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _binary(a, b, op):
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise TypeError(f"{op} expects Tensor operands")
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a, b):
    _binary(a, b, "add")
    out = a.values + b.values

    def vjp(g):
        return g, g

    return _tracked(out, (a, b), vjp, "add")


def sub(a, b):
    _binary(a, b, "sub")
    out = a.values - b.values

    def vjp(g):
        return g, -g

    return _tracked(out, (a, b), vjp, "sub")


def mul(a, b):
    _binary(a, b, "mul")
    out = a.values * b.values

    def vjp(g):
        return g * b.values, g * a.values

    return _tracked(out, (a, b), vjp, "mul")


def div(a, b):
    _binary(a, b, "div")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.values / b.values

    def vjp(g):
        return g / b.values, -g * out / b.values

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
    out = np.where(v > 0.0, v, np.expm1(np.minimum(v, 0.0)))

    def vjp(g):
        return (g * np.where(v > 0.0, 1.0, out + 1.0),)

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

    def vjp(g):
        return (g * np.sign(x.values),)

    return _tracked(out, (x,), vjp, "abs")


def clamp01(x):
    """Clip to [0, 1]; gradient is zero where the clip is active."""
    out = np.clip(x.values, 0.0, 1.0)

    def vjp(g):
        return (g * ((x.values > 0.0) & (x.values < 1.0)),)

    return _tracked(out, (x,), vjp, "clamp")


# ---------------------------------------------------------------------------
# reductions and layout ops


def reduce_mean(x):
    """Mean of every entry, as a (1, 1, 1, 1) tensor."""
    out = x.values.mean(axis=(0, 1, 2, 3), keepdims=True)

    def vjp(g):
        return (np.broadcast_to(g, x.shape) / x.values.size,)

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


def diff(x, axis):
    """Forward differences along `axis`, as np.diff: x[i + 1] - x[i]."""
    out = np.diff(x.values, axis=axis)

    def vjp(g):
        gx = np.zeros_like(x.values)
        gv, gs = np.swapaxes(gx, axis, 3), np.swapaxes(g, axis, 3)
        gv[..., 1:] = gs
        gv[..., :-1] -= gs
        return (gx,)

    return _tracked(out, (x,), vjp, "diff")


def swap_eyes(x):
    """A (2B, C, H, W) stereo batch, B left images then B right, with its two
    halves exchanged: the other eye of each image, in the same order."""
    n = x.shape[0]
    if n % 2:
        raise ShapeError(f"swap_eyes needs an even batch of left then right images, got {n}")

    def vjp(g):
        return (np.roll(g, n // 2, axis=0),)

    return _tracked(np.roll(x.values, n // 2, axis=0), (x,), vjp, "swap_eyes")


def _window_sum(values, k, stride, ho, wo):
    """The (N, C, Ho, Wo) sums of the k x k windows of `values` at `stride`,
    as k*k strided slice adds in (ki, kj) order, so each sum's bits do not
    depend on the memory layout of `values`."""
    total = np.zeros(values.shape[:2] + (ho, wo))
    for ki, kj in np.ndindex(k, k):
        total += values[:, :, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride]
    return total


def upsample_nearest(x):
    """Nearest-neighbour upsampling by 2 on H and W: each pyramid level
    halves."""
    out = np.repeat(np.repeat(x.values, 2, axis=2), 2, axis=3)
    _, _, h, w = x.shape

    def vjp(g):
        return (_window_sum(g, 2, 2, h, w),)

    return _tracked(out, (x,), vjp, "upsample_nearest")


def avg_pool(x, kernel, stride):
    """Average pooling, valid windows only."""
    kernel, stride = int(kernel), int(stride)
    _, _, h, w = x.shape
    if kernel > h or kernel > w:
        raise ShapeError(f"pool kernel {kernel} exceeds spatial extents of {x.shape}")
    ho, wo = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    out = _window_sum(x.values, kernel, stride, ho, wo)
    out /= kernel * kernel
    inv = 1.0 / (kernel * kernel)

    def vjp(g):
        gx = np.zeros_like(x.values)
        piece = g * inv
        for ki in range(kernel):
            for kj in range(kernel):
                gx[:, :, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride] += piece
        return (gx,)

    return _tracked(out, (x,), vjp, "avg_pool")


def pixel_shuffle(x):
    """Rearrange (N, 4C, H, W) -> (N, C, 2H, 2W), doubling the extents as
    upsample_nearest does.

    Channel c*4 + dy*2 + dx of the input lands at output pixel
    (h*2 + dy, w*2 + dx) of channel c.
    """
    n, c, h, w = x.shape
    if c % 4 != 0:
        raise ShapeError(f"pixel_shuffle needs channels divisible by 4, got {c}")
    co = c // 4
    out = (
        x.values.reshape(n, co, 2, 2, h, w)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(n, co, h * 2, w * 2)
    )

    def vjp(g):
        back = (
            g.reshape(n, co, h, 2, w, 2)
            .transpose(0, 1, 3, 5, 2, 4)
            .reshape(n, c, h, w)
        )
        return (np.ascontiguousarray(back),)

    return _tracked(np.ascontiguousarray(out), (x,), vjp, "pixel_shuffle")


# ---------------------------------------------------------------------------
# convolution


def _im2col(values, k, stride, ho, wo):
    """The (C*k*k, N*Ho*Wo) columns of `values` for a k x k kernel with zero
    padding p = k // 2: a read-only (C, k, k, N, Ho, Wo) strided window over
    a zeroed (N, C, H+2p, W+2p) copy, reshaped channel-major. For one image's
    stride-1 1x1 conv (p = 0) they are a view of `values`."""
    n, c, h, w = values.shape
    p = k // 2
    if p:
        padded = np.zeros((n, c, h + 2 * p, w + 2 * p))
        padded[:, :, p:p + h, p:p + w] = values
    else:
        padded = values
    s0, s1, s2, s3 = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded, (c, k, k, n, ho, wo), (s1, s2, s3, s0, stride * s2, stride * s3), writeable=False)
    return windows.reshape(c * k * k, n * ho * wo)


def conv2d(x, weight, bias, stride=1):
    """2-D cross-correlation of x (N, C, H, W) with filters weight (O, C, k, k),
    k odd, zero padding p = k // 2 and stride 1 or 2, plus bias (1, O, 1, 1)
    per output channel; output extents follow (H + 2p - k) // stride + 1.

    The forward is one `wmat @ cols` GEMM per image, so an image's bits do not
    depend on its batch; wmat (O, C*k*k) is a view of the weight and cols from
    _im2col are dropped once the output exists. The VJP closure keeps only x,
    weight and bias, not 9x the input of a 3x3 conv: it rebuilds cols for the
    weight gradient, one GEMM over the batch. The input gradient, if x requires
    it, is the transposed conv: per image, the flipped, channel-swapped kernel
    times the stride-1 _im2col of g, zero-dilated at stride 2.
    """
    n, c, h, w = x.shape
    o, cw, kh, kw = weight.shape
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"kernel must be square and odd, got {kh}x{kw}")
    if cw != c:
        raise ShapeError(f"weight expects {cw} input channels, input has {c}")
    if stride not in (1, 2):
        raise ShapeError(f"stride must be 1 or 2, got {stride}")
    if bias.shape != (1, o, 1, 1):
        raise ShapeError(f"bias must be (1, {o}, 1, 1), got {bias.shape}")
    k = kh
    p = k // 2
    ho = (h + 2 * p - k) // stride + 1
    wo = (w + 2 * p - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv output would be empty for input {x.shape}, kernel {k}, stride {stride}")

    wmat = weight.values.reshape(o, c * k * k)
    out = np.matmul(wmat, _im2col(x.values, k, stride, ho, wo).reshape(c * k * k, n, ho * wo).transpose(1, 0, 2))
    out = out.reshape(n, o, ho, wo)
    out += bias.values

    def vjp(g):
        gw = (g.transpose(1, 0, 2, 3).reshape(o, -1) @ _im2col(x.values, k, stride, ho, wo).T).reshape(o, c, k, k)
        gb = g.sum(axis=(0, 2, 3)).reshape(1, o, 1, 1)
        if not x.requires_grad:
            return None, gw, gb
        gd = g if stride == 1 else np.zeros((n, o, h, w))
        if stride == 2:
            gd[:, :, ::2, ::2] = g
        wflip = weight.values[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * k * k)
        gx = np.empty((n, c, h * w))
        for i in range(n):
            np.matmul(wflip, _im2col(gd[i:i + 1], k, 1, h, w), out=gx[i])
        return gx.reshape(n, c, h, w), gw, gb

    return _tracked(out, (x, weight, bias), vjp, "conv2d")


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
    bit for bit. The VJP builds no source gradient for a source without
    requires_grad (an image); otherwise one bincount scatters both taps'
    weights into the source columns, each column summed in a fixed order.
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

    out = np.take_along_axis(source.values, np.broadcast_to(j0, source.shape), axis=3)
    slope = np.take_along_axis(source.values, np.broadcast_to(j1, source.shape), axis=3)
    slope -= out
    out += frac * slope  # out held the left taps; in place, no tap array is freed to fragment the heap

    inside = (pos_raw > 0.0) & (pos_raw < w - 1.0)

    def vjp(g):
        goff = (slope * g).sum(axis=1, keepdims=True) * w * inside
        if not source.requires_grad:
            return None, goff
        row_start = np.arange(0, n * c * h * w, w).reshape(n, c, h, 1)
        # left taps, then right: bincount adds in input order, so this fixes each column's sum order
        taps = np.concatenate([(row_start + j0).ravel(), (row_start + j1).ravel()])
        weights = np.concatenate([(g * (1.0 - frac)).ravel(), (g * frac).ravel()])
        return np.bincount(taps, weights, minlength=n * c * h * w).reshape(n, c, h, w), goff

    return _tracked(out, (source, offsets), vjp, "grid_sample")
