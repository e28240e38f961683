"""Minimal numpy neural-network layers with hand-rolled backpropagation.

Parameters and running statistics live in flat dicts keyed by dot-joined
paths ("sem.0.W"), which keeps checkpointing and finite-difference
gradient checking trivial. All layers are dtype-preserving so the same
graph can run in float32 for training and float64 for gradient checks.

Modules made of other modules (``Sequential``, ``ResidualBlock`` and the
predictor's network) derive from ``Composite``: each child has a name, and
its tensors live under "<name>." in the parent's dicts. ``Composite.init``
initializes the children in order, ``run`` calls a child's forward on its
slice of the dicts and ``grad`` a child's backward, prefixing its
gradients. Subclasses keep their own ``forward``/``backward`` that wire
the children together. Layers without tensors derive from ``Layer``.
"""

import numpy as np

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1


def _sub(d, prefix):
    p = prefix + "."
    return {k[len(p):]: v for k, v in d.items() if k.startswith(p)}


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
    """Batch normalization over the batch (and spatial dims for 4-D input)."""

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
        return (0,) if x.ndim == 2 else (0, 2, 3)

    @staticmethod
    def _shape(x):
        return (1, -1) if x.ndim == 2 else (1, -1, 1, 1)

    def forward(self, x, p, s, training, rng):
        axes, shp = self._axes(x), self._shape(x)
        if training:
            mean = x.mean(axis=axes)
            xc = x - mean.reshape(shp)
            var = (xc * xc).mean(axis=axes)  # the arithmetic of x.var(axis=axes)
            # running stats updated in place so shared state dicts stay in sync
            s["running_mean"] *= 1 - _BN_MOMENTUM
            s["running_mean"] += (_BN_MOMENTUM * mean).astype(s["running_mean"].dtype)
            s["running_var"] *= 1 - _BN_MOMENTUM
            s["running_var"] += (_BN_MOMENTUM * var).astype(s["running_var"].dtype)
        else:
            mean, var = s["running_mean"], s["running_var"]
            xc = x - mean.reshape(shp)
        inv_std = 1.0 / np.sqrt(var + _BN_EPS)
        xhat = xc
        xhat *= inv_std.reshape(shp)
        y = xhat * p["gamma"].reshape(shp)
        y += p["beta"].reshape(shp)
        return y, (xhat, inv_std, training)

    def backward(self, dy, cache, p):
        xhat, inv_std, training = cache
        axes, shp = self._axes(dy), self._shape(dy)
        dgamma = (dy * xhat).sum(axis=axes)
        dbeta = dy.sum(axis=axes)
        scale = (p["gamma"] * inv_std).reshape(shp)
        if training:
            # d/dx of gamma * xhat: the two batch reductions are dbeta and dgamma
            m = dy.size // dy.shape[1]
            dx = dy - (dbeta / m).reshape(shp)
            dx -= xhat * (dgamma / m).reshape(shp)
            dx *= scale
        else:
            dx = dy * scale
        return dx, {"gamma": dgamma, "beta": dbeta}


def _pad(x, pad):
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x


def _im2col(xp, k, stride, oh, ow):
    """Columns (N, C*k*k, OH*OW) of the k x k windows of padded input ``xp``."""
    n, c = xp.shape[:2]
    cols = np.empty((n, c, k, k, oh, ow), dtype=xp.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols.reshape(n, c * k * k, oh * ow)


def _col2im(dcols, x_shape, k, stride, pad):
    """Adjoint of ``_im2col``: scatter-add (N, C, k, k, OH, OW) window
    gradients back onto an input of shape ``x_shape``."""
    n, c, h, w = x_shape
    oh, ow = dcols.shape[-2:]
    dxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=dcols.dtype)
    for i in range(k):
        for j in range(k):
            dxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += dcols[:, :, i, j]
    return dxp[:, :, pad:pad + h, pad:pad + w]


class Conv2d:
    """2-D convolution as one batched GEMM over im2col columns.

    ``input_grad=False`` is for a network's first layer, whose input is
    data: backward then returns ``None`` for the input gradient and skips
    the GEMM and scatter that would compute it.
    """

    def __init__(self, c_in, c_out, kernel=3, stride=1, pad=1, input_grad=True):
        self.c_in, self.c_out = c_in, c_out
        self.k, self.stride, self.pad = kernel, stride, pad
        self.input_grad = input_grad

    def init(self, rng, dtype):
        fan_in = self.c_in * self.k * self.k
        return {
            "W": fan_in_uniform(rng, (self.c_out, self.c_in, self.k, self.k), fan_in, dtype),
            "b": np.zeros(self.c_out, dtype=dtype),
        }, {}

    def out_hw(self, h, w):
        return ((h + 2 * self.pad - self.k) // self.stride + 1,
                (w + 2 * self.pad - self.k) // self.stride + 1)

    def forward(self, x, p, s, training, rng):
        n = x.shape[0]
        oh, ow = self.out_hw(*x.shape[2:])
        cols = _im2col(_pad(x, self.pad), self.k, self.stride, oh, ow)
        # (C_out, C*k*k) @ (N, C*k*k, OH*OW) lands in NCHW order
        y = np.matmul(p["W"].reshape(self.c_out, -1), cols)
        y += p["b"].reshape(1, -1, 1)
        return y.reshape(n, self.c_out, oh, ow), (cols, x.shape)

    def backward(self, dy, cache, p):
        cols, x_shape = cache
        n, c = x_shape[:2]
        oh, ow = dy.shape[2:]
        dy3 = dy.reshape(n, self.c_out, oh * ow)
        dW = np.matmul(dy3, cols.transpose(0, 2, 1)).sum(axis=0).reshape(p["W"].shape)
        grads = {"W": dW, "b": dy.sum(axis=(0, 2, 3))}
        if not self.input_grad:
            return None, grads
        dcols = np.matmul(p["W"].reshape(self.c_out, -1).T, dy3)
        dx = _col2im(dcols.reshape(n, c, self.k, self.k, oh, ow), x_shape,
                     self.k, self.stride, self.pad)
        return dx, grads


class AvgPool(Layer):
    """Average pooling; padded positions count in the divisor (k*k)."""

    def __init__(self, kernel=3, stride=2, pad=1):
        self.k, self.stride, self.pad = kernel, stride, pad

    out_hw = Conv2d.out_hw

    def forward(self, x, p, s, training, rng):
        n, c, h, w = x.shape
        oh, ow = self.out_hw(h, w)
        xp, k, st = _pad(x, self.pad), self.k, self.stride
        # window sum in row-major window order from +0, as a mean over the
        # window axes of the im2col columns would add them
        y = np.zeros((n, c, oh, ow), dtype=x.dtype)
        for i in range(k):
            for j in range(k):
                y += xp[:, :, i:i + st * oh:st, j:j + st * ow:st]
        y /= k * k
        return y, x.shape

    def backward(self, dy, cache, p):
        n, c, oh, ow = dy.shape
        k = self.k
        share = np.broadcast_to((dy / (k * k))[:, :, None, None], (n, c, k, k, oh, ow))
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
    def forward(self, x, p, s, training, rng):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dy, cache, p):
        return dy.reshape(cache), {}


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
        return self.children[name].forward(x, _sub(params, name), _sub(state, name),
                                           training, rng)

    def grad(self, name, dy, cache, params, grads):
        """Backward of child ``name``: adds its gradients to ``grads``
        under its prefix and returns the input gradient."""
        dx, g = self.children[name].backward(dy, cache, _sub(params, name))
        grads.update(_ns(g, name))
        return dx


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
    """Adaptive-moment optimizer over a flat parameter dict."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        b1t = 1 - self.beta1 ** self.t
        b2t = 1 - self.beta2 ** self.t
        for k, g in grads.items():
            m = self.m[k]
            v = self.v[k]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            params[k] -= (self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)).astype(params[k].dtype)
