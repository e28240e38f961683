"""Minimal numpy neural-network layers with hand-rolled backpropagation.

Parameters and running statistics live in flat dicts keyed by dot-joined
paths ("sem.0.W"), which keeps checkpointing and finite-difference
gradient checking trivial. All layers are dtype-preserving so the same
graph can run in float32 for training and float64 for gradient checks.

Layout: image activations are 4-D ``(C, H, W, N)``, batch innermost, so
every strided window copy of a convolution or pooling layer moves rows of
N contiguous values, and a convolution is one 2-D GEMM over columns
``(C*k*k, OH*OW*N)``. Vector activations are ``(N, F)``. ``Flatten`` is
the boundary: it turns ``(C, H, W, N)`` into ``(N, C*H*W)`` with features
in (c, h, w) order; ``Dense``, ``Dropout`` and 2-D ``BatchNorm`` work on
``(N, F)``. A network whose input is integer label maps starts with
``LabelConv2d``, which builds its columns from the maps directly.

Modules made of other modules (``Sequential``, ``ResidualBlock`` and the
predictor's network) derive from ``Composite``: each child has a name, and
its tensors live under "<name>." in the parent's dicts. ``Composite.init``
initializes the children in order, ``run`` calls a child's forward on its
slice of the dicts and ``grad`` a child's backward, prefixing its
gradients. A child's slice comes from (short, full) key pairs grouped once
per key set (memoized on the dict's key tuple), not from a scan of every
key per call; ``grad`` files the child's gradients under the same pairs.
Subclasses keep their own ``forward``/``backward`` that wire the children
together. Layers without tensors derive from ``Layer``.

``Adam`` packs the parameters into one contiguous buffer and rebinds each
tensor of the parameter dict to a view of it, so an optimizer step is a
handful of elementwise operations over the whole buffer, bitwise equal to
updating each tensor on its own.
"""

import functools

import numpy as np

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1


@functools.lru_cache(maxsize=1024)
def _child_keys(keys):
    """child name -> ((short, full) key pairs) of a dict with keys ``keys``,
    where a full key is "<name>.<short>"."""
    groups = {}
    for k in keys:
        name, _, short = k.partition(".")
        groups.setdefault(name, []).append((short, k))
    return {name: tuple(pairs) for name, pairs in groups.items()}


def _ns(d, prefix):
    return {f"{prefix}.{k}": v for k, v in d.items()}


def fan_in_uniform(rng, shape, fan_in, dtype):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Layer:
    """A module without parameters or state."""

    def init(self, rng, dtype):
        return {}, {}


class Dense:
    def __init__(self, n_in, n_out):
        self.n_in, self.n_out = n_in, n_out

    def init(self, rng, dtype):
        return {
            "W": fan_in_uniform(rng, (self.n_out, self.n_in), self.n_in, dtype),
            "b": np.zeros(self.n_out, dtype=dtype),
        }, {}

    def forward(self, x, p, s, training, rng):
        return x @ p["W"].T + p["b"], x

    def backward(self, dy, cache, p):
        x = cache
        return dy @ p["W"], {"W": dy.T @ x, "b": dy.sum(axis=0)}


class ReLU(Layer):
    def forward(self, x, p, s, training, rng):
        y = np.maximum(x, 0)
        return y, (x > 0)

    def backward(self, dy, cache, p):
        return dy * cache, {}


class BatchNorm:
    """Batch normalization per feature of (N, F) input or per channel of
    (C, H, W, N) input, over the batch (and spatial dims)."""

    def __init__(self, num_features):
        self.num_features = num_features

    def init(self, rng, dtype):
        c = self.num_features
        params = {"gamma": np.ones(c, dtype=dtype), "beta": np.zeros(c, dtype=dtype)}
        state = {"running_mean": np.zeros(c, dtype=dtype),
                 "running_var": np.ones(c, dtype=dtype)}
        return params, state

    @staticmethod
    def _axes(x):
        return (0,) if x.ndim == 2 else (1, 2, 3)

    @staticmethod
    def _shape(x):
        return (1, -1) if x.ndim == 2 else (-1, 1, 1, 1)

    def forward(self, x, p, s, training, rng):
        axes, shp = self._axes(x), self._shape(x)
        if training:
            # np.add.reduce / m is the arithmetic of x.mean and x.var,
            # without their Python wrapper
            total = np.add.reduce(x, axis=axes)
            m = x.size // total.size  # values per feature
            mean = total / m
            xc = x - mean.reshape(shp)
            buf = np.multiply(xc, xc)  # squared deviations, then y
            var = np.add.reduce(buf, axis=axes) / m
            # running stats updated in place so shared state dicts stay in sync
            s["running_mean"] *= 1 - _BN_MOMENTUM
            s["running_mean"] += (_BN_MOMENTUM * mean).astype(s["running_mean"].dtype)
            s["running_var"] *= 1 - _BN_MOMENTUM
            s["running_var"] += (_BN_MOMENTUM * var).astype(s["running_var"].dtype)
        else:
            mean, var = s["running_mean"], s["running_var"]
            xc = x - mean.reshape(shp)
            buf = None
        inv_std = 1.0 / np.sqrt(var + _BN_EPS)
        xhat = xc
        xhat *= inv_std.reshape(shp)
        y = np.multiply(xhat, p["gamma"].reshape(shp), out=buf)
        y += p["beta"].reshape(shp)
        return y, (xhat, inv_std, training)

    def backward(self, dy, cache, p):
        xhat, inv_std, training = cache
        axes, shp = self._axes(dy), self._shape(dy)
        buf = np.multiply(dy, xhat)  # dy * xhat, then the xhat correction
        dgamma = np.add.reduce(buf, axis=axes)
        dbeta = np.add.reduce(dy, axis=axes)
        scale = (p["gamma"] * inv_std).reshape(shp)
        if training:
            # d/dx of gamma * xhat: the two batch reductions are dbeta and dgamma
            m = dy.size // dbeta.size  # values per feature
            dx = dy - (dbeta / m).reshape(shp)
            dx -= np.multiply(xhat, (dgamma / m).reshape(shp), out=buf)
            dx *= scale
        else:
            dx = dy * scale
        return dx, {"gamma": dgamma, "beta": dbeta}


def _pad(x, pad):
    """(C, H, W, N) input with ``pad`` zeros around H and W."""
    if not pad:
        return x
    c, h, w, n = x.shape
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + w] = x
    return xp


def _im2col(xp, k, stride, oh, ow):
    """Columns (C*k*k, OH*OW*N) of the k x k windows of padded input ``xp``
    (C, H, W, N): row (c, i, j), column (oh, ow, n)."""
    c, n = xp.shape[0], xp.shape[3]
    cols = np.empty((c, k, k, oh, ow, n), dtype=xp.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = xp[:, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols.reshape(c * k * k, oh * ow * n)


def _col2im(dcols, x_shape, k, stride, pad):
    """Adjoint of ``_im2col``: scatter-add (C, k, k, OH, OW, N) window
    gradients back onto an input of shape ``x_shape`` (C, H, W, N)."""
    c, h, w, n = x_shape
    oh, ow = dcols.shape[3:5]
    dxp = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=dcols.dtype)
    for i in range(k):
        for j in range(k):
            dxp[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += dcols[:, i, j]
    return dxp[:, pad:pad + h, pad:pad + w]


class Conv2d:
    """2-D convolution of (C, H, W, N) input as one GEMM over im2col columns.

    A subclass whose input is data sets ``input_grad = False``: backward
    then returns ``None`` for the input gradient and skips the GEMM and
    scatter that would compute it.
    """

    input_grad = True

    def __init__(self, c_in, c_out, kernel=3, stride=1, pad=1):
        self.c_in, self.c_out = c_in, c_out
        self.k, self.stride, self.pad = kernel, stride, pad

    def init(self, rng, dtype):
        fan_in = self.c_in * self.k * self.k
        return {
            "W": fan_in_uniform(rng, (self.c_out, self.c_in, self.k, self.k), fan_in, dtype),
            "b": np.zeros(self.c_out, dtype=dtype),
        }, {}

    def out_hw(self, h, w):
        return ((h + 2 * self.pad - self.k) // self.stride + 1,
                (w + 2 * self.pad - self.k) // self.stride + 1)

    def _columns(self, x, dtype):
        """im2col columns (C*k*k, OH*OW*N) of input ``x`` and the output
        shape (C_out, OH, OW, N)."""
        c, h, w, n = x.shape
        oh, ow = self.out_hw(h, w)
        return (_im2col(_pad(x, self.pad), self.k, self.stride, oh, ow),
                (self.c_out, oh, ow, n))

    def forward(self, x, p, s, training, rng):
        cols, y_shape = self._columns(x, p["W"].dtype)
        y = p["W"].reshape(self.c_out, -1) @ cols
        y += p["b"][:, None]
        return y.reshape(y_shape), (cols, x.shape if self.input_grad else None)

    def backward(self, dy, cache, p):
        cols, x_shape = cache
        dy2 = dy.reshape(self.c_out, -1)
        grads = {"W": (dy2 @ cols.T).reshape(p["W"].shape), "b": dy2.sum(axis=1)}
        if not self.input_grad:
            return None, grads
        dcols = p["W"].reshape(self.c_out, -1).T @ dy2
        dx = _col2im(dcols.reshape((x_shape[0], self.k, self.k) + dy.shape[1:]), x_shape,
                     self.k, self.stride, self.pad)
        return dx, grads


# label id of the padding around label maps; no concept uses it
PAD_LABEL = 255


class LabelConv2d(Conv2d):
    """First convolution of a network whose input is integer label maps.

    The input is ``(maps, ids)``: uint8 maps (N, M, H, W) and the label ids
    (n_ids,) to one-hot, each below ``PAD_LABEL``. Input channel
    ``a * M + m`` is ``maps[:, m] == ids[a]`` read at ``input_hw``; maps
    at an integer multiple of it are subsampled by that factor. The columns
    come straight from the maps: pad them with ``PAD_LABEL``, gather the
    k x k strided taps, compare them with ``ids`` and cast to the parameter
    dtype. The input is data, so there is no input gradient.
    """

    input_grad = False

    def __init__(self, c_in, c_out, input_hw, kernel=3, stride=1, pad=1):
        super().__init__(c_in, c_out, kernel, stride, pad)
        self.input_hw = tuple(input_hw)

    def _columns(self, x, dtype):
        maps, ids = x
        n, m, H, W = maps.shape
        h, w = self.input_hw
        if H % h or W % w:
            raise ValueError(f"map resolution {(H, W)} not an integer multiple of {(h, w)}")
        oh, ow = self.out_hw(h, w)
        k, st, pad = self.k, self.stride, self.pad
        xp = np.full((n, m, h + 2 * pad, w + 2 * pad), PAD_LABEL, dtype=np.uint8)
        xp[:, :, pad:pad + h, pad:pad + w] = maps[:, :, ::H // h, ::W // w]
        taps = np.empty((m, k, k, oh, ow, n), dtype=np.uint8)
        for i in range(k):
            for j in range(k):
                taps[:, i, j] = xp[:, :, i:i + st * oh:st,
                                   j:j + st * ow:st].transpose(1, 2, 3, 0)
        cols = np.empty((len(ids),) + taps.shape, dtype=dtype)
        np.equal(taps, np.reshape(ids, (-1,) + (1,) * taps.ndim), out=cols)
        return cols.reshape(-1, oh * ow * n), (self.c_out, oh, ow, n)


class AvgPool(Layer):
    """Average pooling; padded positions count in the divisor (k*k)."""

    def __init__(self, kernel=3, stride=2, pad=1):
        self.k, self.stride, self.pad = kernel, stride, pad

    out_hw = Conv2d.out_hw

    def forward(self, x, p, s, training, rng):
        c, h, w, n = x.shape
        oh, ow = self.out_hw(h, w)
        xp, k, st = _pad(x, self.pad), self.k, self.stride
        # window sum in row-major window order from +0, as a mean over the
        # window axes of the im2col columns would add them
        y = np.zeros((c, oh, ow, n), dtype=x.dtype)
        for i in range(k):
            for j in range(k):
                y += xp[:, i:i + st * oh:st, j:j + st * ow:st]
        y /= k * k
        return y, x.shape

    def backward(self, dy, cache, p):
        k = self.k
        share = np.broadcast_to((dy / (k * k))[:, None, None],
                                (dy.shape[0], k, k) + dy.shape[1:])
        return _col2im(share, cache, k, self.stride, self.pad), {}


class Dropout(Layer):
    def __init__(self, rate):
        self.rate = rate

    def forward(self, x, p, s, training, rng):
        if not training or self.rate == 0:
            return x, None
        keep = 1.0 - self.rate
        mask = (rng.random(x.shape) < keep) / keep
        mask = mask.astype(x.dtype)
        return x * mask, mask

    def backward(self, dy, cache, p):
        if cache is None:
            return dy, {}
        return dy * cache, {}


class Flatten(Layer):
    """(C, H, W, N) -> (N, C*H*W), features in (c, h, w) order."""

    def forward(self, x, p, s, training, rng):
        return x.reshape(-1, x.shape[3]).T, x.shape

    def backward(self, dy, cache, p):
        return dy.T.reshape(cache), {}


class Composite:
    """A module built from named children, ``self.children`` (name ->
    module, in initialization order)."""

    def init(self, rng, dtype):
        params, state = {}, {}
        for name, child in self.children.items():
            p, s = child.init(rng, dtype)
            params.update(_ns(p, name))
            state.update(_ns(s, name))
        return params, state

    def run(self, name, x, params, state, training, rng):
        """Forward of child ``name``; returns (output, cache)."""
        return self.children[name].forward(x, self._slice(params, name),
                                           self._slice(state, name), training, rng)

    def grad(self, name, dy, cache, params, grads):
        """Backward of child ``name``: adds its gradients to ``grads``
        under its prefix and returns the input gradient."""
        pairs = _child_keys(tuple(params)).get(name, ())
        dx, g = self.children[name].backward(dy, cache, {s: params[f] for s, f in pairs})
        for s, f in pairs:
            grads[f] = g[s]
        return dx

    @staticmethod
    def _slice(d, name):
        """Child ``name``'s tensors of ``d`` under their short keys."""
        return {s: d[f] for s, f in _child_keys(tuple(d)).get(name, ())}


class Sequential(Composite):
    def __init__(self, layers):
        self.children = {str(i): layer for i, layer in enumerate(layers)}

    def forward(self, x, params, state, training, rng):
        caches = []
        for name in self.children:
            x, c = self.run(name, x, params, state, training, rng)
            caches.append(c)
        return x, caches

    def backward(self, dy, caches, params):
        grads = {}
        for name, cache in reversed(list(zip(self.children, caches))):
            dy = self.grad(name, dy, cache, params, grads)
        return dy, grads


class ResidualBlock(Composite):
    """conv-bn-relu-conv-bn plus a shortcut, then relu.

    The shortcut is the identity when shapes match, else a strided 1x1
    projection convolution (child "proj").
    """

    def __init__(self, c_in, c_out, stride=1):
        self.children = {"conv1": Conv2d(c_in, c_out, 3, stride, 1), "bn1": BatchNorm(c_out),
                         "conv2": Conv2d(c_out, c_out, 3, 1, 1), "bn2": BatchNorm(c_out)}
        if stride != 1 or c_in != c_out:
            self.children["proj"] = Conv2d(c_in, c_out, 1, stride, 0)

    def out_hw(self, h, w):
        return self.children["conv1"].out_hw(h, w)

    def forward(self, x, params, state, training, rng):
        def run(name, inp):
            return self.run(name, inp, params, state, training, rng)

        y1, c1 = run("conv1", x)
        y2, c2 = run("bn1", y1)
        relu1_mask = y2 > 0
        y3 = np.maximum(y2, 0)
        y4, c4 = run("conv2", y3)
        y5, c5 = run("bn2", y4)
        if "proj" in self.children:
            sc, cp = run("proj", x)
        else:
            sc, cp = x, None
        pre = y5 + sc
        out_mask = pre > 0
        return np.maximum(pre, 0), (c1, c2, relu1_mask, c4, c5, cp, out_mask)

    def backward(self, dy, cache, params):
        c1, c2, relu1_mask, c4, c5, cp, out_mask = cache
        grads = {}
        dpre = dy * out_mask
        d5 = self.grad("bn2", dpre, c5, params, grads)
        d3 = self.grad("conv2", d5, c4, params, grads) * relu1_mask
        d2 = self.grad("bn1", d3, c2, params, grads)
        dx = self.grad("conv1", d2, c1, params, grads)
        if "proj" in self.children:
            return dx + self.grad("proj", dpre, cp, params, grads), grads
        return dx + dpre, grads


class Adam:
    """Adaptive-moment optimizer over a flat parameter dict.

    The constructor packs the parameters, in the dict's key order, into one
    contiguous buffer and rebinds each ``params[k]`` to a view of it, so a
    step is five elementwise updates over the whole buffer. All parameters
    must share one dtype. ``step`` takes the dict given to the constructor.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        dtypes = sorted({str(v.dtype) for v in params.values()})
        if len(dtypes) > 1:
            raise ValueError(f"Adam needs one parameter dtype, got {dtypes}")
        self.keys = tuple(params)
        self.flat = np.concatenate([np.ravel(params[k]) for k in self.keys])
        self.views = []
        offset = 0
        for k in self.keys:
            size = params[k].size
            params[k] = self.flat[offset:offset + size].reshape(params[k].shape)
            self.views.append(params[k])
            offset += size
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def step(self, params, grads):
        for k, view in zip(self.keys, self.views):
            if params[k] is not view:
                raise ValueError(f"parameter {k!r} is not a view of the optimizer's buffer; "
                                 "step the dict the optimizer was built on")
        # a missing gradient raises KeyError naming it
        g = np.concatenate([np.ravel(grads[k]) for k in self.keys])
        if len(grads) != len(self.keys):
            raise KeyError(f"gradients of unknown parameters {sorted(set(grads) - set(self.keys))}")
        self.t += 1
        b1t = 1 - self.beta1 ** self.t
        b2t = 1 - self.beta2 ** self.t
        m, v = self.m, self.v
        m *= self.beta1
        m += (1 - self.beta1) * g
        v *= self.beta2
        v += (1 - self.beta2) * g * g
        self.flat -= (self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)).astype(self.flat.dtype)
