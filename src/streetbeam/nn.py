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

Two lanes (``streetbeam.lanes``): a process that may use two CPUs runs
the per-channel passes of image activations, and the large GEMMs of
convolutions, as two halves at once: the calling thread takes channels
(or GEMM columns) ``[0, n//2)``, and the helper thread ``[n//2, n)``. The
split passes are BatchNorm forward and backward on (C, H, W, N) input,
ReLU, AvgPool, padding, im2col and its adjoint, and a ``LabelConv2d``'s
columns; a convolution's forward and input-gradient GEMMs are cut into
column halves, and its weight-gradient GEMM runs whole. Each channel, and
each GEMM column on one BLAS thread, is computed by the same arithmetic
in either half, so two lanes give the bits of one. The caller allocates
every output and temporary of both halves. With one lane each pass runs
whole in one call. The helper runs numpy functions and the kernels below,
never a layer's forward or backward.
"""

import numpy as np

from . import lanes

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


def _gemm(a, bias, b, out=None):
    out = np.matmul(a, b, out=out)
    if bias is not None:
        out += bias
    return (out,)


# OpenBLAS may run a GEMM of up to 1e6 multiply-adds on a small-matrix
# kernel, which rounds otherwise: with OpenBLAS 0.3.31 on an AVX-512 Xeon,
# two column halves of (8, 72) x (72, 2000) differ from the whole in the
# last bit. So a GEMM is split only where each half is well above that.
_GEMM_HALF_MIN = 1 << 22


def _conv_gemm(a, bias, b):
    """``a @ b``, plus ``bias`` unless None, of (S, M, K) ``a`` and (S, K, L)
    ``b``: on the lanes as column halves of ``b`` where each half takes at
    least ``_GEMM_HALF_MIN`` multiply-adds a model, else whole."""
    m, k = a.shape[1:]
    axis = -1 if m * k * (b.shape[2] // 2) >= _GEMM_HALF_MIN else None
    return lanes.split(_gemm, (b,), (a, bias),
                       lambda: (np.empty(a.shape[:2] + b.shape[2:], a.dtype),), axis)[0]


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
    """max(x, 0), on the lanes for (C, H, W, N) input."""

    def forward(self, x, p, s, training, rng):
        return lanes.split(_relu, (x,), (), lambda: (np.empty(x.shape, x.dtype),
                                                     np.empty(x.shape, bool)),
                           0 if x.ndim == 4 else None)

    def backward(self, dy, cache, p):
        dx, = lanes.split(_masked, (dy, cache), (), lambda: (np.empty(dy.shape, dy.dtype),),
                          0 if dy.ndim == 4 else None)
        return dx, {}


def _relu(x, y=None, mask=None):
    return np.maximum(x, 0, out=y), np.greater(x, 0, out=mask)


def _masked(dy, mask, dx=None):
    return (np.multiply(dy, mask, out=dx),)


class BatchNorm:
    """Batch normalization per feature of (N, F) input or per channel of
    (C, H, W, N) input, over the batch (and spatial dims); the latter on
    the lanes."""

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

    def _sum(self, x, out=None):
        """Per-feature sums over the batch (and spatial) axes, shaped (1, F)
        or (C, 1, 1, 1); ``out`` is taken for (C, H, W, N) input."""
        if x.ndim == 2:
            return _sum_batch(x, x.shape[1] // self.num_features).reshape(1, -1)
        return np.add.reduce(x, axis=self._axes(x), keepdims=True, out=out)

    @staticmethod
    def _outs(x, vectors):
        """Allocates two arrays shaped like (C, H, W, N) input ``x`` and
        ``vectors`` per-channel vectors (C, 1, 1, 1)."""
        return lambda: (np.empty(x.shape, x.dtype), np.empty(x.shape, x.dtype),
                        *np.empty((vectors, len(x), 1, 1, 1), x.dtype))

    def forward(self, x, p, s, training, rng):
        shp = self._shape(x)
        affine = p["gamma"].reshape(shp), p["beta"].reshape(shp)
        axis = 0 if x.ndim == 4 else None
        if training:
            xhat, y, mean, var, inv_std = lanes.split(_bn_batch, (x, *affine), (self._sum,),
                                                      self._outs(x, 3), axis)
            # running stats updated in place so shared state dicts stay in sync
            for key, batch in (("running_mean", mean), ("running_var", var)):
                s[key] *= 1 - _BN_MOMENTUM
                s[key] += (_BN_MOMENTUM * batch).astype(s[key].dtype).reshape(s[key].shape)
        else:
            stats = s["running_mean"].reshape(shp), s["running_var"].reshape(shp)
            xhat, y, inv_std = lanes.split(_bn_running, (x, *stats, *affine), (),
                                           self._outs(x, 1), axis)
        return y, (xhat, inv_std.reshape(-1), training)

    def backward(self, dy, cache, p):
        xhat, inv_std, training = cache
        shp = self._shape(dy)
        scale = (p["gamma"].reshape(-1) * inv_std).reshape(shp)
        if training:
            dx, _, dgamma, dbeta = lanes.split(_bn_backward, (dy, xhat, scale), (self._sum,),
                                               self._outs(dy, 2), 0 if dy.ndim == 4 else None)
        else:
            dx, dgamma, dbeta = dy * scale, self._sum(dy * xhat), self._sum(dy)
        return dx, {"gamma": dgamma.reshape(p["gamma"].shape),
                    "beta": dbeta.reshape(p["beta"].shape)}


# The BatchNorm kernels take the per-feature sums ``sum_(a, out)`` of
# BatchNorm._sum, and per-feature vectors shaped to broadcast against the
# input; each returns its outputs, written to the given ones where not None.

def _bn_batch(sum_, x, gamma, beta, xhat=None, y=None, mean=None, var=None, inv_std=None):
    """Training-mode BatchNorm of ``x`` on its batch statistics: returns
    (xhat, y, mean, var, inv_std)."""
    # sum_ / m is the arithmetic of x.mean and x.var, without their Python wrapper
    total = sum_(x, mean)
    m = x.size // total.size  # values per feature
    mean = np.divide(total, m, out=mean)
    xhat = np.subtract(x, mean, out=xhat)
    y = np.multiply(xhat, xhat, out=y)  # squared deviations, then y
    var = np.divide(sum_(y, var), m, out=var)
    y, inv_std = _bn_scale(xhat, var, gamma, beta, y, inv_std)
    return xhat, y, mean, var, inv_std


def _bn_running(x, mean, var, gamma, beta, xhat=None, y=None, inv_std=None):
    """Evaluation-mode BatchNorm of ``x`` on the running statistics:
    returns (xhat, y, inv_std)."""
    xhat = np.subtract(x, mean, out=xhat)
    return (xhat, *_bn_scale(xhat, var, gamma, beta, y, inv_std))


def _bn_scale(xhat, var, gamma, beta, y, inv_std):
    """Scale the centred ``xhat`` in place to unit variance, then
    y = gamma * xhat + beta: returns (y, inv_std)."""
    inv_std = np.divide(1.0, np.sqrt(var + _BN_EPS), out=inv_std)
    xhat *= inv_std
    y = np.multiply(xhat, gamma, out=y)
    y += beta
    return y, inv_std


def _bn_backward(sum_, dy, xhat, scale, dx=None, buf=None, dgamma=None, dbeta=None):
    """Training-mode BatchNorm input gradient, ``scale`` = gamma * inv_std:
    returns (dx, buf, dgamma, dbeta), buf a temporary."""
    buf = np.multiply(dy, xhat, out=buf)  # dy * xhat, then the xhat correction
    dgamma = sum_(buf, dgamma)
    dbeta = sum_(dy, dbeta)
    # d/dx of gamma * xhat: the two batch reductions are dbeta and dgamma
    m = dy.size // dbeta.size  # values per feature
    dx = np.subtract(dy, dbeta / m, out=dx)
    dx -= np.multiply(xhat, dgamma / m, out=buf)
    dx *= scale
    return dx, buf, dgamma, dbeta


def _pad(x, pad, xp=None):
    """(C, H, W, N) input with ``pad`` zeros around H and W; written to
    ``xp``, border included, if given."""
    if not pad:
        return x
    c, h, w, n = x.shape
    if xp is None:
        xp = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=x.dtype)
    else:
        xp[:, :pad] = xp[:, pad + h:] = 0
        xp[:, pad:pad + h, :pad] = xp[:, pad:pad + h, pad + w:] = 0
    xp[:, pad:pad + h, pad:pad + w] = x
    return xp


def _im2col(xp, k, stride, oh, ow, cols=None):
    """Columns (C*k*k, OH*OW*N) of the k x k windows of padded input ``xp``
    (C, H, W, N): row (c, i, j), column (oh, ow, n); written to ``cols``
    (C, k, k, OH, OW, N) if given."""
    c, n = xp.shape[0], xp.shape[3]
    if cols is None:
        cols = np.empty((c, k, k, oh, ow, n), dtype=xp.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = xp[:, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols.reshape(c * k * k, oh * ow * n)


def _windows(pad, k, stride, oh, ow, x, xp=None, cols=None):
    """Kernel of ``Conv2d._columns``: (padded input, im2col columns)."""
    xp = _pad(x, pad, xp)
    return xp, _im2col(xp, k, stride, oh, ow, cols)


def _col2im(dcols, x_shape, k, stride, pad):
    """Adjoint of ``_im2col``: scatter-add (C, k, k, OH, OW, N) window
    gradients back onto an input of shape ``x_shape`` (C, H, W, N), on the
    lanes."""
    c, h, w, n = x_shape
    padded = (c, h + 2 * pad, w + 2 * pad, n)
    dxp, = lanes.split(_scatter, (dcols,), (padded[1:3], stride),
                       lambda: (np.empty(padded, dcols.dtype),))
    return dxp[:, pad:pad + h, pad:pad + w]


def _scatter(hw, stride, dcols, dxp=None):
    """Kernel of ``_col2im``: the padded input gradient, summed from +0 in
    row-major window order."""
    c, k, _, oh, ow, n = dcols.shape
    if dxp is None:
        dxp = np.zeros((c,) + hw + (n,), dtype=dcols.dtype)
    else:
        dxp.fill(0)
    for i in range(k):
        for j in range(k):
            dxp[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += dcols[:, i, j]
    return (dxp,)


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
        k, pad = self.k, self.pad

        def outs():
            return (np.empty((c, h + 2 * pad, w + 2 * pad, n), x.dtype) if pad else None,
                    np.empty((c, k, k, oh, ow, n), x.dtype))
        _, cols = lanes.split(_windows, (x,), (pad, k, self.stride, oh, ow), outs)
        return cols.reshape(c * k * k, -1), (c // self.c_in * self.c_out, oh, ow, n)

    def _weights(self, p):
        """(S, C_out, C*k*k) view of the weights of a stack of S models."""
        return p["W"].reshape(-1, self.c_out, self.c_in * self.k * self.k)

    def forward(self, x, p, s, training, rng):
        W = self._weights(p)
        cols, y_shape = self._columns(x, W.dtype)
        cols = cols.reshape(len(W), W.shape[2], -1)
        y = _conv_gemm(W, p["b"].reshape(len(W), self.c_out, 1), cols)
        return y.reshape(y_shape), (cols, x.shape if self.input_grad else None)

    def backward(self, dy, cache, p):
        cols, x_shape = cache
        W = self._weights(p)
        dy3 = dy.reshape(len(W), self.c_out, -1)
        grads = {"W": np.matmul(dy3, cols.transpose(0, 2, 1)).reshape(p["W"].shape),
                 "b": np.add.reduce(dy3, axis=2).reshape(p["b"].shape)}
        if not self.input_grad:
            return None, grads
        dcols = _conv_gemm(W.transpose(0, 2, 1), None, dy3)
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
        k, pad = self.k, self.pad
        # camera-major, so that the lanes split on the first axis
        maps = maps.transpose(1, 0, 2, 3)
        _, taps = lanes.split(_label_taps, (maps,), (pad, k, self.stride, oh, ow),
                              lambda: (np.empty((m, n, h + 2 * pad, w + 2 * pad), np.uint8),
                                       np.empty((m, k, k, oh, ow, n), np.uint8)))
        models, n_ids = self.ids.shape
        taps = taps.reshape(models, 1, m // models, k, k, -1)
        ids = self.ids.reshape(models, n_ids, 1, 1, 1, 1)
        cols, = lanes.split(_one_hot, (taps,), (ids, dtype),
                            lambda: (np.empty((models, n_ids) + taps.shape[2:], dtype),), axis=-1)
        return cols.reshape(-1, oh * ow * n), (models * self.c_out, oh, ow, n)


def _label_taps(pad, k, stride, oh, ow, maps, xp=None, taps=None):
    """Kernel of ``LabelConv2d._columns``: camera-major maps (m, N, H, W)
    padded with ``PAD_LABEL``, and their k x k strided taps (m, k, k, OH,
    OW, N)."""
    m, n, h, w = maps.shape
    if xp is None:
        xp = np.full((m, n, h + 2 * pad, w + 2 * pad), PAD_LABEL, dtype=np.uint8)
    else:
        xp.fill(PAD_LABEL)
    xp[:, :, pad:pad + h, pad:pad + w] = maps
    if taps is None:
        taps = np.empty((m, k, k, oh, ow, n), dtype=np.uint8)
    for i in range(k):
        for j in range(k):
            taps[:, i, j] = xp[:, :, i:i + stride * oh:stride,
                               j:j + stride * ow:stride].transpose(0, 2, 3, 1)
    return xp, taps


def _one_hot(ids, dtype, taps, cols=None):
    """Kernel of ``LabelConv2d._columns``: ``taps == ids`` cast to ``dtype``."""
    if cols is None:
        cols = np.empty(ids.shape[:2] + taps.shape[2:], dtype=dtype)
    np.equal(taps, ids, out=cols)
    return (cols,)


class AvgPool(Layer):
    """Average pooling; padded positions count in the divisor (k*k)."""

    def __init__(self, kernel=3, stride=2, pad=1):
        self.k, self.stride, self.pad = kernel, stride, pad

    out_hw = Conv2d.out_hw

    def forward(self, x, p, s, training, rng):
        c, h, w, n = x.shape
        oh, ow = self.out_hw(h, w)
        pad = self.pad
        _, y = lanes.split(_pool, (x,), (pad, self.k, self.stride, oh, ow),
                           lambda: (np.empty((c, h + 2 * pad, w + 2 * pad, n), x.dtype),
                                    np.empty((c, oh, ow, n), x.dtype)))
        return y, x.shape

    def backward(self, dy, cache, p):
        k = self.k
        share = np.broadcast_to((dy / (k * k))[:, None, None],
                                (dy.shape[0], k, k) + dy.shape[1:])
        return _col2im(share, cache, k, self.stride, self.pad), {}


def _pool(pad, k, stride, oh, ow, x, xp=None, y=None):
    """Kernel of ``AvgPool.forward``: (padded input, window means)."""
    xp = _pad(x, pad, xp)
    if y is None:
        y = np.zeros((len(x), oh, ow, x.shape[3]), dtype=x.dtype)
    else:
        y.fill(0)
    # window sum in row-major window order from +0, as a mean over the
    # window axes of the im2col columns would add them
    for i in range(k):
        for j in range(k):
            y += xp[:, i:i + stride * oh:stride, j:j + stride * ow:stride]
    y /= k * k
    return xp, y


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
