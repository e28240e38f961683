"""Minimal numpy neural-network layers with hand-rolled backpropagation.

Parameters and running statistics live in nested dicts that mirror the
module tree: a layer's tensors sit under their own keys ("W"), and a
composite's child "sem" owns the subtree ``params["sem"]``. ``leaves``
walks a tree depth first and names each tensor by its dot-joined path
("sem.4.conv1.W"), which is how checkpoints, the optimizer and
finite-difference gradient checks address tensors. All layers are
dtype-preserving so the same graph can run in float32 for training and
float64 for gradient checks.

Layout: image activations are 4-D ``(C, H, W, N)``, batch innermost, so
every strided window copy of a convolution or pooling layer moves rows of
N contiguous values, and a convolution is one 2-D GEMM over columns
``(C*k*k, OH*OW*N)``. Vector activations are ``(N, F)``. ``Flatten`` is
the boundary: it turns ``(C, H, W, N)`` into ``(N, C*H*W)`` with features
in (c, h, w) order; ``Dense``, ``Dropout`` and 2-D ``BatchNorm`` work on
``(N, F)``. A network whose input is integer label maps starts with
``LabelConv2d``, which builds its columns from the maps directly.

Modules made of other modules (``Sequential``, ``ResidualBlock`` and the
predictor's network) derive from ``Composite``: each child has a name
under which its tensors sit in the parent's trees. ``Composite.init``
initializes the children in order, ``run`` calls a child's forward on its
subtrees and ``grad`` a child's backward, filing its gradient subtree
under its name. Subclasses keep their own ``forward``/``backward`` that
wire the children together. Layers without tensors derive from ``Layer``.

Stacks: a graph runs S models of one shape at once, one forward and one
backward per batch, with the models folded into the channel and feature
axes. Model s owns channels ``s*C:(s+1)*C`` of an image activation
``(S*C, H, W, N)`` and features ``s*F:(s+1)*F`` of a vector activation
``(N, S*F)``, so a stack of one is a single model, and ``Flatten`` and
the elementwise layers treat a stack as one wide model. Each tensor of a
stack's parameter and state trees carries a leading model axis
``(S, ...)``; a layer reads S from its tensors' sizes, so a single model's
tensors, without that axis, are a stack of one. A GEMM runs as one
``np.matmul`` over the model axis, whose slices equal the single model's
2-D GEMM bit for bit, and each reduction sums a model's values in the
order the model alone sums them, so every model of a stack computes
exactly what it computes alone. ``Dropout`` takes one generator per model.

``Adam`` packs the parameters into one contiguous buffer with a row per
model and rebinds each tensor of the parameter tree to a view of it, so an
optimizer step is a handful of elementwise operations over the rows of
the models it steps, bitwise equal to updating each tensor on its own.
"""

import numpy as np

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1


def leaves(tree, prefix=""):
    """(dotted name, dict, key) of each tensor of a nested dict ``tree``,
    depth first in insertion order; ``dict[key]`` is the tensor."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, tree, key


def tree_map(fn, tree, *others):
    """A tree shaped like ``tree`` whose tensor at each name is ``fn`` of the
    tensors at that name in ``tree`` and ``others``."""
    return {key: tree_map(fn, value, *(o[key] for o in others)) if isinstance(value, dict)
            else fn(value, *(o[key] for o in others)) for key, value in tree.items()}


def _sum_batch(x, models):
    """Per-feature sums over the batch axis of (N, models*F) input, each
    model's as it sums alone: numpy adds the rows of a 2-D array in turn,
    but sums a lone column (F = 1) pairwise."""
    if models > 1 and x.shape[1] == models:
        return np.add.reduce(np.ascontiguousarray(x.T), axis=1)
    return np.add.reduce(x, axis=0)


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

    def _per_model(self, a, width, models):
        """(models, N, width) view of (N, models*width) activations. With
        a width of 1 a GEMM becomes a GEMV, whose rounding depends on the
        operands' strides, so then each model's rows are copied contiguous,
        as a single model's are."""
        a = a.reshape(a.shape[0], models, width).transpose(1, 0, 2)
        return np.ascontiguousarray(a) if 1 in (self.n_in, self.n_out) else a

    def forward(self, x, p, s, training, rng):
        W = p["W"].reshape(-1, self.n_out, self.n_in)
        y = np.matmul(self._per_model(x, self.n_in, len(W)), W.transpose(0, 2, 1))
        y += p["b"].reshape(len(W), 1, self.n_out)
        return y.transpose(1, 0, 2).reshape(x.shape[0], -1), x

    def backward(self, dy, cache, p):
        x = cache
        W = p["W"].reshape(-1, self.n_out, self.n_in)
        dy3 = self._per_model(dy, self.n_out, len(W))
        dx = np.matmul(dy3, W).transpose(1, 0, 2).reshape(dy.shape[0], -1)
        dW = np.matmul(dy3.transpose(0, 2, 1), self._per_model(x, self.n_in, len(W)))
        return dx, {"W": dW.reshape(p["W"].shape),
                    "b": _sum_batch(dy, len(W)).reshape(p["b"].shape)}


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

    def _sum(self, x):
        """Per-feature sums over the batch (and spatial) axes."""
        if x.ndim == 2:
            return _sum_batch(x, x.shape[1] // self.num_features)
        return np.add.reduce(x, axis=self._axes(x))

    def forward(self, x, p, s, training, rng):
        shp = self._shape(x)
        if training:
            # np.add.reduce / m is the arithmetic of x.mean and x.var,
            # without their Python wrapper
            total = self._sum(x)
            m = x.size // total.size  # values per feature
            mean = total / m
            xc = x - mean.reshape(shp)
            buf = np.multiply(xc, xc)  # squared deviations, then y
            var = self._sum(buf) / m
            # running stats updated in place so shared state dicts stay in sync
            for key, batch in (("running_mean", mean), ("running_var", var)):
                s[key] *= 1 - _BN_MOMENTUM
                s[key] += (_BN_MOMENTUM * batch).astype(s[key].dtype).reshape(s[key].shape)
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
        shp = self._shape(dy)
        buf = np.multiply(dy, xhat)  # dy * xhat, then the xhat correction
        dgamma = self._sum(buf)
        dbeta = self._sum(dy)
        scale = (p["gamma"].reshape(-1) * inv_std.reshape(-1)).reshape(shp)
        if training:
            # d/dx of gamma * xhat: the two batch reductions are dbeta and dgamma
            m = dy.size // dbeta.size  # values per feature
            dx = dy - (dbeta / m).reshape(shp)
            dx -= np.multiply(xhat, (dgamma / m).reshape(shp), out=buf)
            dx *= scale
        else:
            dx = dy * scale
        return dx, {"gamma": dgamma.reshape(p["gamma"].shape),
                    "beta": dbeta.reshape(p["beta"].shape)}


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
        """im2col columns (S*C*k*k, OH*OW*N) of input ``x`` (S*C, H, W, N)
        and the output shape (S*C_out, OH, OW, N)."""
        c, h, w, n = x.shape
        oh, ow = self.out_hw(h, w)
        return (_im2col(_pad(x, self.pad), self.k, self.stride, oh, ow),
                (c // self.c_in * self.c_out, oh, ow, n))

    def _weights(self, p):
        """(S, C_out, C*k*k) view of the weights of a stack of S models."""
        return p["W"].reshape(-1, self.c_out, self.c_in * self.k * self.k)

    def forward(self, x, p, s, training, rng):
        W = self._weights(p)
        cols, y_shape = self._columns(x, W.dtype)
        cols = cols.reshape(len(W), W.shape[2], -1)
        y = np.matmul(W, cols)
        y += p["b"].reshape(len(W), self.c_out, 1)
        return y.reshape(y_shape), (cols, x.shape if self.input_grad else None)

    def backward(self, dy, cache, p):
        cols, x_shape = cache
        W = self._weights(p)
        dy3 = dy.reshape(len(W), self.c_out, -1)
        grads = {"W": np.matmul(dy3, cols.transpose(0, 2, 1)).reshape(p["W"].shape),
                 "b": np.add.reduce(dy3, axis=2).reshape(p["b"].shape)}
        if not self.input_grad:
            return None, grads
        dcols = np.matmul(W.transpose(0, 2, 1), dy3)
        dx = _col2im(dcols.reshape((x_shape[0], self.k, self.k) + dy.shape[1:]), x_shape,
                     self.k, self.stride, self.pad)
        return dx, grads


# label id of the padding around label maps; no concept uses it
PAD_LABEL = 255


class LabelConv2d(Conv2d):
    """First convolution of a network whose input is integer label maps.

    It holds the label ``ids`` (n_ids,) it one-hots, each below
    ``PAD_LABEL``, and reads uint8 maps (N, n_cams, H, W) as they are: input
    channel ``a * n_cams + m`` is ``maps[:, m] == ids[a]``, so ``c_in`` is
    ``n_ids * n_cams``. The columns come straight from the maps: pad them
    with ``PAD_LABEL``, gather the k x k strided taps, compare them with
    ``ids`` and cast to the parameter dtype. The input is data, so there is
    no input gradient.

    For a stack of S models, ``ids`` is (S, n_ids), a row per model, and
    the maps are (N, S*n_cams, H, W): model s reads maps channels
    ``s*n_cams:(s+1)*n_cams`` and one-hots its own ids.
    """

    input_grad = False

    def __init__(self, ids, n_cams, c_out, kernel=3, stride=1, pad=1):
        self.ids = np.atleast_2d(ids)
        super().__init__(self.ids.shape[1] * n_cams, c_out, kernel, stride, pad)

    def _columns(self, maps, dtype):
        n, m, h, w = maps.shape
        oh, ow = self.out_hw(h, w)
        k, st, pad = self.k, self.stride, self.pad
        xp = np.full((n, m, h + 2 * pad, w + 2 * pad), PAD_LABEL, dtype=np.uint8)
        xp[:, :, pad:pad + h, pad:pad + w] = maps
        taps = np.empty((m, k, k, oh, ow, n), dtype=np.uint8)
        for i in range(k):
            for j in range(k):
                taps[:, i, j] = xp[:, :, i:i + st * oh:st,
                                   j:j + st * ow:st].transpose(1, 2, 3, 0)
        models, n_ids = self.ids.shape
        taps = taps.reshape((models, 1, m // models) + taps.shape[1:])
        cols = np.empty((models, n_ids) + taps.shape[2:], dtype=dtype)
        np.equal(taps, self.ids.reshape((models, n_ids) + (1,) * (taps.ndim - 2)), out=cols)
        return cols.reshape(-1, oh * ow * n), (models * self.c_out, oh, ow, n)


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
    """Inverted dropout of (N, S*F) input; ``rng`` is a sequence of one
    generator per model of the stack, which draws that model's (N, F)
    mask."""

    def __init__(self, rate):
        self.rate = rate

    def forward(self, x, p, s, training, rng):
        if not training or self.rate == 0:
            return x, None
        keep = 1.0 - self.rate
        draw = (x.shape[0], x.shape[1] // len(rng))
        mask = (np.stack([r.random(draw) for r in rng], axis=1).reshape(x.shape) < keep) / keep
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
    module, in initialization order); child ``name`` owns ``params[name]``
    and ``state[name]``."""

    def init(self, rng, dtype):
        params, state = {}, {}
        for name, child in self.children.items():
            params[name], state[name] = child.init(rng, dtype)
        return params, state

    def run(self, name, x, params, state, training, rng):
        """Forward of child ``name``; returns (output, cache)."""
        return self.children[name].forward(x, params[name], state[name], training, rng)

    def grad(self, name, dy, cache, params, grads):
        """Backward of child ``name``: files its gradients under ``grads[name]``
        and returns the input gradient."""
        dx, grads[name] = self.children[name].backward(dy, cache, params[name])
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
    """Adaptive-moment optimizer over a parameter tree of ``models`` models.

    The constructor packs the parameters, in ``leaves`` order, into one
    contiguous buffer (models, P), a row per model, and rebinds each tensor
    of the tree to a view of it, so a step is five elementwise updates over
    the buffer. With ``models`` > 1, every tensor has a leading model
    axis. All parameters must share one dtype. ``step`` takes the tree given
    to the constructor and gradients of the same names, and steps every
    model of the stack; each model keeps its own moments.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=1e-3, models=1):
        self.lr = lr
        self.t = 0  # steps taken
        slots = list(leaves(params))
        dtypes = sorted({str(d[k].dtype) for _, d, k in slots})
        if len(dtypes) > 1:
            raise ValueError(f"Adam needs one parameter dtype, got {dtypes}")
        self.names = tuple(name for name, _, _ in slots)
        self.flat = np.concatenate([d[k].reshape(models, -1) for _, d, k in slots], axis=1)
        self.views = []
        offset = 0
        for _, d, k in slots:
            size = d[k].size // models
            d[k] = self.flat[:, offset:offset + size].reshape(d[k].shape)
            self.views.append(d[k])
            offset += size
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def step(self, params, grads):
        """One update of every model of the stack, whose gradients ``grads``
        carry a leading model axis."""
        current = {name: d[k] for name, d, k in leaves(params)}
        for name, view in zip(self.names, self.views):
            if current.get(name) is not view:
                raise ValueError(f"parameter {name!r} is not a view of the optimizer's "
                                 "buffer; step the tree the optimizer was built on")
        grads = {name: d[k] for name, d, k in leaves(grads)}
        # a missing gradient raises KeyError naming it
        g = np.concatenate([grads[name].reshape(len(self.flat), -1) for name in self.names],
                           axis=1)
        if len(grads) != len(self.names):
            raise KeyError(f"gradients of unknown parameters {sorted(set(grads) - set(self.names))}")
        self.t += 1
        # bias corrections rounded to the buffer dtype, as a single model's are
        b1t, b2t = (self.flat.dtype.type(1 - beta ** self.t) for beta in (self.BETA1, self.BETA2))
        self.m *= self.BETA1
        self.m += (1 - self.BETA1) * g
        self.v *= self.BETA2
        self.v += (1 - self.BETA2) * g * g
        self.flat -= (self.lr * (self.m / b1t) / (np.sqrt(self.v / b2t) + self.EPS)).astype(
            self.flat.dtype)
