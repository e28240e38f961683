import numpy as np
import pytest

from streetbeam.nn import (Adam, AvgPool, BatchNorm, Conv2d, Dense, Dropout,
                           Flatten, ReLU, ResidualBlock, Sequential, _col2im)
from streetbeam.rng import stream


def fd_layer_check(layer, x, seed=0, training=True, step=1e-6, tol=1e-5):
    """Finite-difference check of one layer's input and parameter gradients
    against backward(), using sum(y * r) as a scalar loss."""
    rng = stream(seed, "nn.init")
    params, state = layer.init(rng, np.float64)
    r = stream(seed, "nn.r").normal(size=layer.forward(x, params, dict(state), training, None)[0].shape)

    def loss(p, xv):
        y, _ = layer.forward(xv, p, dict(state), training, None)
        return float((y * r).sum())

    y, cache = layer.forward(x, params, dict(state), training, None)
    dx, grads = layer.backward(r, cache, params)

    # input gradient
    gx = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = gx.reshape(-1)
    idx = stream(seed, "nn.pickx").choice(flat.size, size=min(30, flat.size), replace=False)
    for i in idx:
        orig = flat[i]
        flat[i] = orig + step
        lp = loss(params, x)
        flat[i] = orig - step
        lm = loss(params, x)
        flat[i] = orig
        num = (lp - lm) / (2 * step)
        assert abs(dx.reshape(-1)[i] - num) <= tol * max(1.0, abs(num))

    # parameter gradients
    for k, v in params.items():
        pf = v.reshape(-1)
        pick = stream(seed, "nn.pickp." + k).choice(pf.size, size=min(20, pf.size), replace=False)
        for i in pick:
            orig = pf[i]
            pf[i] = orig + step
            lp = loss(params, x)
            pf[i] = orig - step
            lm = loss(params, x)
            pf[i] = orig
            num = (lp - lm) / (2 * step)
            assert abs(grads[k].reshape(-1)[i] - num) <= tol * max(1.0, abs(num)), k


def test_dense_gradients():
    x = stream(1, "x").normal(size=(5, 7))
    fd_layer_check(Dense(7, 4), x)


def test_relu_gradient():
    x = stream(2, "x").normal(size=(6, 5)) + 0.05  # keep away from the kink
    fd_layer_check(ReLU(), x)


def test_batchnorm_train_mode_gradients_2d():
    x = stream(3, "x").normal(size=(8, 5))
    fd_layer_check(BatchNorm(5), x, training=True)


def test_batchnorm_train_mode_gradients_4d():
    x = stream(4, "x").normal(size=(3, 4, 5, 6))
    fd_layer_check(BatchNorm(4), x, training=True)


def test_batchnorm_eval_mode_gradients():
    x = stream(5, "x").normal(size=(8, 5))
    fd_layer_check(BatchNorm(5), x, training=False)


def test_batchnorm_normalizes_in_train_mode():
    bn = BatchNorm(3)
    p, s = bn.init(stream(0, "i"), np.float64)
    x = stream(6, "x").normal(size=(200, 3)) * 4 + 2
    y, _ = bn.forward(x, p, s, True, None)
    assert np.allclose(y.mean(axis=0), 0, atol=1e-10)
    assert np.allclose(y.std(axis=0), 1, atol=1e-3)
    # running stats moved towards the batch stats with momentum 0.1
    assert np.allclose(s["running_mean"], 0.1 * x.mean(axis=0), atol=1e-12)


def test_conv2d_gradients_and_shape():
    x = stream(7, "x").normal(size=(2, 3, 8, 10))
    conv = Conv2d(3, 4, kernel=3, stride=2, pad=1)
    assert conv.out_hw(8, 10) == (4, 5)
    fd_layer_check(conv, x)


def test_conv2d_matches_naive_convolution():
    rng = stream(8, "x")
    x = rng.normal(size=(1, 2, 5, 6))
    conv = Conv2d(2, 3, kernel=3, stride=1, pad=1)
    p, s = conv.init(stream(0, "i"), np.float64)
    y, _ = conv.forward(x, p, s, False, None)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    for o in range(3):
        for i in range(5):
            for j in range(6):
                acc = p["b"][o]
                acc += (xp[0, :, i:i + 3, j:j + 3] * p["W"][o]).sum()
                assert y[0, o, i, j] == pytest.approx(acc, rel=1e-12)


def test_avgpool_gradients_and_values():
    x = stream(9, "x").normal(size=(2, 3, 6, 6))
    pool = AvgPool(3, 2, 1)
    fd_layer_check(pool, x)
    y, _ = pool.forward(x, {}, {}, False, None)
    assert y.shape == (2, 3, 3, 3)
    # interior window: plain 3x3 mean
    assert y[0, 0, 1, 1] == pytest.approx(x[0, 0, 1:4, 1:4].mean())


def test_dropout_eval_identity_and_train_scaling():
    x = np.ones((4, 100))
    d = Dropout(0.4)
    y_eval, _ = d.forward(x, {}, {}, False, None)
    assert np.array_equal(y_eval, x)
    y_tr, mask = d.forward(x, {}, {}, True, stream(0, "d"))
    kept = y_tr[y_tr > 0]
    assert np.allclose(kept, 1 / 0.6)
    # inverted dropout keeps the expectation
    assert abs(y_tr.mean() - 1.0) < 0.15


def test_residual_block_gradients():
    x = stream(10, "x").normal(size=(3, 4, 6, 8))
    fd_layer_check(ResidualBlock(4, 4, stride=1), x, tol=3e-5)
    fd_layer_check(ResidualBlock(4, 6, stride=2), x, tol=3e-5)


def test_sequential_composition_and_gradients():
    x = stream(11, "x").normal(size=(4, 6))
    seq = Sequential([Dense(6, 8), ReLU(), Dense(8, 3)])
    fd_layer_check(seq, x)
    p, s = seq.init(stream(0, "i"), np.float64)
    assert set(p) == {"0.W", "0.b", "2.W", "2.b"}


def test_linear_network_gradient_exact():
    # linear-only network: analytic and numeric agree to near machine epsilon
    x = stream(12, "x").normal(size=(4, 5))
    seq = Sequential([Dense(5, 5), Dense(5, 2)])
    p, s = seq.init(stream(1, "i"), np.float64)
    r = stream(2, "r").normal(size=(4, 2))
    y, cache = seq.forward(x, p, s, False, None)
    _, grads = seq.backward(r, cache, p)
    step = 1e-6
    k = "0.W"
    flat = p[k].reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        lp = float((seq.forward(x, p, s, False, None)[0] * r).sum())
        flat[i] = orig - step
        lm = float((seq.forward(x, p, s, False, None)[0] * r).sum())
        flat[i] = orig
        num = (lp - lm) / (2 * step)
        assert abs(grads[k].reshape(-1)[i] - num) < 1e-9


def test_adam_matches_manual_update():
    p = {"w": np.array([1.0, -2.0])}
    g = {"w": np.array([0.5, -0.25])}
    opt = Adam(p, lr=0.01)
    opt.step(p, g)
    # first step: mhat = g, vhat = g^2 -> update ~ lr * sign(g)
    expect = np.array([1.0, -2.0]) - 0.01 * g["w"] / (np.abs(g["w"]) + 1e-8)
    assert np.allclose(p["w"], expect, atol=1e-9)


# ---------------------------------------------------------------------------
# oracles: the einsum convolution, im2col-mean pooling and three-reduction
# batch norm that the batched-GEMM kernels replaced

def _reference_im2col(xp, k, stride, oh, ow):
    n, c = xp.shape[:2]
    cols = np.empty((n, c, k, k, oh, ow), dtype=xp.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols


def _reference_pad(x, pad):
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


def _reference_col2im(dcols, x_shape, k, stride, pad):
    n, c, h, w = x_shape
    oh, ow = dcols.shape[-2:]
    dxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=dcols.dtype)
    for i in range(k):
        for j in range(k):
            dxp[:, :, i:i + stride * oh:stride,
                j:j + stride * ow:stride] += dcols[:, :, i, j]
    return dxp[:, :, pad:pad + h, pad:pad + w]


def _reference_conv(conv, x, dy, p):
    """(y, dx, dW, db, dcols) of the einsum convolution."""
    oh, ow = conv.out_hw(*x.shape[2:])
    cols = _reference_im2col(_reference_pad(x, conv.pad), conv.k, conv.stride, oh, ow)
    y = np.einsum("ncijhw,ocij->nohw", cols, p["W"], optimize=True) \
        + p["b"].reshape(1, -1, 1, 1)
    dW = np.einsum("nohw,ncijhw->ocij", dy, cols, optimize=True)
    db = dy.sum(axis=(0, 2, 3))
    dcols = np.einsum("nohw,ocij->ncijhw", dy, p["W"], optimize=True)
    dx = _reference_col2im(dcols, x.shape, conv.k, conv.stride, conv.pad)
    return y, dx, dW, db, dcols


def _reference_avgpool_forward(pool, x):
    oh, ow = pool.out_hw(*x.shape[2:])
    cols = _reference_im2col(_reference_pad(x, pool.pad), pool.k, pool.stride, oh, ow)
    return cols.mean(axis=(2, 3))


def _reference_batchnorm(x, dy, p, s, training):
    """(y, dx, dgamma, dbeta) of the three-reduction batch norm; updates
    the running stats in ``s`` like the layer does."""
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    shp = (1, -1) if x.ndim == 2 else (1, -1, 1, 1)
    if training:
        mean, var = x.mean(axis=axes), x.var(axis=axes)
        for key, stat in (("running_mean", mean), ("running_var", var)):
            s[key] *= 1 - 0.1
            s[key] += (0.1 * stat).astype(s[key].dtype)
    else:
        mean, var = s["running_mean"], s["running_var"]
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mean.reshape(shp)) * inv_std.reshape(shp)
    y = p["gamma"].reshape(shp) * xhat + p["beta"].reshape(shp)
    dgamma = (dy * xhat).sum(axis=axes)
    dbeta = dy.sum(axis=axes)
    dxhat = dy * p["gamma"].reshape(shp)
    if training:
        m = dy.size // dy.shape[1]
        dx = (inv_std.reshape(shp) / m) * (
            m * dxhat
            - dxhat.sum(axis=axes).reshape(shp)
            - xhat * (dxhat * xhat).sum(axis=axes).reshape(shp))
    else:
        dx = dxhat * inv_std.reshape(shp)
    return y, dx, dgamma, dbeta


# relative tolerances, fixed per dtype, where summation order changed
_RTOL = {np.float64: 1e-12, np.float32: 1e-5}


def assert_close(a, ref, dtype, scale=None):
    """max |a - ref| within the dtype's tolerance of ``scale``, by default
    max |ref|."""
    assert a.dtype == ref.dtype == dtype and a.shape == ref.shape
    if scale is None:
        scale = float(np.abs(ref).max())
    assert float(np.abs(a - ref).max()) <= _RTOL[dtype] * max(scale, np.finfo(dtype).tiny)


def assert_bitwise(a, ref):
    assert a.dtype == ref.dtype and a.shape == ref.shape
    assert a.tobytes() == ref.tobytes()


DTYPES = [np.float32, np.float64]

# (input shape, c_out, kernel, stride, pad): the default beam arch at batch
# 128, then odd H/W and batch 1
CONV_CASES = [
    ((128, 2, 80, 160), 16, 3, 4, 1),  # first conv: stride > kernel
    ((128, 16, 20, 40), 16, 3, 2, 1),
    ((128, 16, 5, 10), 8, 3, 2, 1),
    ((128, 16, 5, 10), 8, 1, 2, 0),    # 1x1 projection, no padding
    ((128, 8, 3, 5), 8, 3, 1, 1),
    ((3, 3, 7, 9), 4, 3, 2, 1),
    ((2, 3, 7, 9), 5, 1, 2, 0),
    ((1, 2, 80, 160), 16, 3, 4, 1),
]


def _random(seed, shape, dtype):
    return stream(seed, "oracle").normal(size=shape).astype(dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("x_shape,c_out,k,stride,pad", CONV_CASES)
def test_conv2d_matches_einsum_reference(x_shape, c_out, k, stride, pad, dtype):
    conv = Conv2d(x_shape[1], c_out, k, stride, pad)
    p, _ = conv.init(stream(0, "i"), dtype)
    p["b"] = _random(1, p["b"].shape, dtype)
    x = _random(2, x_shape, dtype)
    y, cache = conv.forward(x, p, {}, True, None)
    dy = _random(3, y.shape, dtype)
    dx, grads = conv.backward(dy, cache, p)
    y_ref, dx_ref, dW_ref, db_ref, dcols_ref = _reference_conv(conv, x, dy, p)
    assert_close(y, y_ref, dtype)
    assert_close(dx, dx_ref, dtype)
    assert_close(grads["W"], dW_ref, dtype)
    assert_bitwise(grads["b"], db_ref)
    # the scatter is unchanged: identical window gradients give identical dx
    assert_bitwise(_col2im(dcols_ref, x_shape, k, stride, pad), dx_ref)
    # a first layer skips only the input gradient
    first = Conv2d(x_shape[1], c_out, k, stride, pad, input_grad=False)
    no_dx, first_grads = first.backward(dy, cache, p)
    assert no_dx is None and first_grads.keys() == grads.keys()
    for key in grads:
        assert_bitwise(first_grads[key], grads[key])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("x_shape", [(128, 16, 20, 40), (3, 3, 7, 9), (1, 16, 20, 40)])
def test_avgpool_matches_im2col_mean_reference(x_shape, dtype):
    pool = AvgPool(3, 2, 1)
    x = _random(6, x_shape, dtype)
    x[0, 0, 1:4, 1:4] = -0.0  # an inner window of negative zeros: the sum starts at +0
    y, cache = pool.forward(x, {}, {}, True, None)
    assert_bitwise(y, _reference_avgpool_forward(pool, x))
    dy = _random(7, y.shape, dtype)
    dx, _ = pool.backward(dy, cache, {})
    share = np.broadcast_to((dy / 9)[:, :, None, None], dy.shape[:2] + (3, 3) + dy.shape[2:])
    assert_bitwise(dx, _reference_col2im(share, x_shape, 3, 2, 1))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("x_shape", [(128, 16, 20, 40), (128, 256), (3, 5, 7, 9),
                                     (1, 8, 5, 10), (2, 5)])
def test_batchnorm_matches_three_reduction_reference(x_shape, training, dtype):
    bn = BatchNorm(x_shape[1])
    p, s = bn.init(stream(0, "i"), dtype)
    p["gamma"] = _random(8, p["gamma"].shape, dtype)
    p["beta"] = _random(9, p["beta"].shape, dtype)
    if not training:
        s["running_mean"] = _random(10, s["running_mean"].shape, dtype)
        s["running_var"] = np.abs(_random(11, s["running_var"].shape, dtype)) + 0.5
    s_ref = {k: v.copy() for k, v in s.items()}
    x = _random(12, x_shape, dtype) * 3 + 1
    y, cache = bn.forward(x, p, s, training, None)
    dy = _random(13, y.shape, dtype)
    dx, grads = bn.backward(dy, cache, p)
    y_ref, dx_ref, dgamma_ref, dbeta_ref = _reference_batchnorm(x, dy, p, s_ref, training)
    assert_bitwise(y, y_ref)
    for key in s:
        assert_bitwise(s[key], s_ref[key])
    assert_bitwise(grads["gamma"], dgamma_ref)
    assert_bitwise(grads["beta"], dbeta_ref)
    # dx is a difference of terms of size |gamma * inv_std * dy|, which
    # cancel exactly at batch 2 (xhat = +-1 whatever x is)
    _, inv_std, _ = cache
    assert_close(dx, dx_ref, dtype,
                 scale=float(np.abs(p["gamma"] * inv_std).max() * np.abs(dy).max()))
