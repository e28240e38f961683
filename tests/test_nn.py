import copy
import functools
import threading

import numpy as np
import pytest

import streetbeam.predictor as predictor
from oracles import named
from streetbeam import blas, lanes, nn
from streetbeam.nn import (Adam, AvgPool, BatchNorm, Conv2d, Dense, Dropout,
                           Flatten, LabelConv2d, ReLU, ResidualBlock, Sequential,
                           _col2im, _pad, leaves)
from streetbeam.predictor import (TINY_ARCH, ArchConfig, Predictor, SampleSet,
                                  TrainConfig, _batch_loss_grad, concept_ids,
                                  mask_channels)
from streetbeam.rng import stream
from streetbeam.semantics import CATALOG


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
    grads = named(grads)
    for k, v in named(params).items():
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
    x = stream(4, "x").normal(size=(4, 5, 6, 3))  # (C, H, W, N)
    fd_layer_check(BatchNorm(4), x, training=True)


def test_batchnorm_counts_values_per_channel():
    # training-mode dx sums to zero per channel, which fails if the
    # per-channel count m is taken from the wrong axis
    for shape in [(3, 5, 7, 4), (6, 2, 3, 5)]:  # (C, H, W, N), C != H
        bn = BatchNorm(shape[0])
        p, s = bn.init(stream(0, "i"), np.float64)
        x = stream(14, "x").normal(size=shape)
        _, cache = bn.forward(x, p, s, True, None)
        dx, _ = bn.backward(stream(15, "dy").normal(size=shape), cache, p)
        assert np.abs(dx.sum(axis=(1, 2, 3))).max() < 1e-12


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
    x = stream(7, "x").normal(size=(3, 8, 10, 2))  # (C, H, W, N)
    conv = Conv2d(3, 4, kernel=3, stride=2, pad=1)
    assert conv.out_hw(8, 10) == (4, 5)
    fd_layer_check(conv, x)


def test_conv2d_matches_naive_convolution():
    rng = stream(8, "x")
    x = rng.normal(size=(2, 5, 6, 1))  # (C, H, W, N)
    conv = Conv2d(2, 3, kernel=3, stride=1, pad=1)
    p, s = conv.init(stream(0, "i"), np.float64)
    y, _ = conv.forward(x, p, s, False, None)
    xp = np.pad(x[..., 0], ((0, 0), (1, 1), (1, 1)))
    for o in range(3):
        for i in range(5):
            for j in range(6):
                acc = p["b"][o]
                acc += (xp[:, i:i + 3, j:j + 3] * p["W"][o]).sum()
                assert y[o, i, j, 0] == pytest.approx(acc, rel=1e-12)


def test_avgpool_gradients_and_values():
    x = stream(9, "x").normal(size=(3, 6, 6, 2))  # (C, H, W, N)
    pool = AvgPool(3, 2, 1)
    fd_layer_check(pool, x)
    y, _ = pool.forward(x, {}, {}, False, None)
    assert y.shape == (3, 3, 3, 2)
    # interior window: plain 3x3 mean
    assert y[0, 1, 1, 0] == pytest.approx(x[0, 1:4, 1:4, 0].mean())


def test_dropout_eval_identity_and_train_scaling():
    x = np.ones((4, 100))
    d = Dropout(0.4)
    y_eval, _ = d.forward(x, {}, {}, False, None)
    assert np.array_equal(y_eval, x)
    y_tr, mask = d.forward(x, {}, {}, True, [stream(0, "d")])
    kept = y_tr[y_tr > 0]
    assert np.allclose(kept, 1 / 0.6)
    # inverted dropout keeps the expectation
    assert abs(y_tr.mean() - 1.0) < 0.15


def test_residual_block_gradients():
    x = stream(10, "x").normal(size=(4, 6, 8, 3))  # (C, H, W, N)
    fd_layer_check(ResidualBlock(4, 4, stride=1), x, tol=3e-5)
    fd_layer_check(ResidualBlock(4, 6, stride=2), x, tol=3e-5)


def test_flatten_keeps_chw_feature_order():
    x = stream(13, "x").normal(size=(3, 4, 5, 2))  # (C, H, W, N)
    y, cache = Flatten().forward(x, {}, {}, True, None)
    assert np.array_equal(y, x.transpose(3, 0, 1, 2).reshape(2, -1))
    dx, _ = Flatten().backward(y, cache, {})
    assert np.array_equal(dx, x)


def test_sequential_composition_and_gradients():
    x = stream(11, "x").normal(size=(4, 6))
    seq = Sequential([Dense(6, 8), ReLU(), Dense(8, 3)])
    fd_layer_check(seq, x)
    p, s = seq.init(stream(0, "i"), np.float64)
    assert set(named(p)) == {"0.W", "0.b", "2.W", "2.b"}


def test_linear_network_gradient_exact():
    # linear-only network: analytic and numeric agree to near machine epsilon
    x = stream(12, "x").normal(size=(4, 5))
    seq = Sequential([Dense(5, 5), Dense(5, 2)])
    p, s = seq.init(stream(1, "i"), np.float64)
    r = stream(2, "r").normal(size=(4, 2))
    y, cache = seq.forward(x, p, s, False, None)
    _, grads = seq.backward(r, cache, p)
    step = 1e-6
    flat = p["0"]["W"].reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        lp = float((seq.forward(x, p, s, False, None)[0] * r).sum())
        flat[i] = orig - step
        lm = float((seq.forward(x, p, s, False, None)[0] * r).sum())
        flat[i] = orig
        num = (lp - lm) / (2 * step)
        assert abs(grads["0"]["W"].reshape(-1)[i] - num) < 1e-9


def test_adam_matches_manual_update():
    p = {"w": np.array([1.0, -2.0])}
    g = {"w": np.array([0.5, -0.25])}
    opt = Adam(p, lr=0.01)
    opt.step(p, g)
    # first step: mhat = g, vhat = g^2 -> update ~ lr * sign(g)
    expect = np.array([1.0, -2.0]) - 0.01 * g["w"] / (np.abs(g["w"]) + 1e-8)
    assert np.allclose(p["w"], expect, atol=1e-9)


# ---------------------------------------------------------------------------
# oracles: the NCHW einsum convolution, im2col-mean pooling and
# three-reduction batch norm that the (C, H, W, N) GEMM kernels replaced;
# the tests below compare through transposes

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


def _chwn(x):
    """NCHW -> the layers' (C, H, W, N) layout."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0))


def _nchw(x):
    return x.transpose(3, 0, 1, 2)


DTYPES = [np.float32, np.float64]

# (NCHW input shape, c_out, kernel, stride, pad): the default beam arch at
# batch 128, odd H/W and batch 1, then the TINY_ARCH residual block at batch 32
CONV_CASES = [
    ((128, 2, 80, 160), 16, 3, 4, 1),  # first conv: stride > kernel
    ((128, 16, 20, 40), 16, 3, 2, 1),
    ((128, 16, 5, 10), 8, 3, 2, 1),
    ((128, 16, 5, 10), 8, 1, 2, 0),    # 1x1 projection, no padding
    ((128, 8, 3, 5), 8, 3, 1, 1),
    ((3, 3, 7, 9), 4, 3, 2, 1),
    ((2, 3, 7, 9), 5, 1, 2, 0),
    ((1, 2, 80, 160), 16, 3, 4, 1),
    ((32, 4, 4, 8), 4, 3, 1, 1),
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
    y, cache = conv.forward(_chwn(x), p, {}, True, None)
    dy = _random(3, _nchw(y).shape, dtype)
    dx, grads = conv.backward(_chwn(dy), cache, p)
    y_ref, dx_ref, dW_ref, db_ref, dcols_ref = _reference_conv(conv, x, dy, p)
    assert_close(_nchw(y), y_ref, dtype)
    assert_close(_nchw(dx), dx_ref, dtype)
    assert_close(grads["W"], dW_ref, dtype)
    assert_close(grads["b"], db_ref, dtype)
    # the scatter adds the same values in the same order: identical window
    # gradients give an identical dx
    dcols = np.ascontiguousarray(dcols_ref.transpose(1, 2, 3, 4, 5, 0))
    assert_bitwise(_nchw(_col2im(dcols, _chwn(x).shape, k, stride, pad)), dx_ref)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("x_shape", [(128, 16, 20, 40), (3, 3, 7, 9), (1, 16, 20, 40),
                                     (32, 4, 8, 16)])
def test_avgpool_matches_im2col_mean_reference(x_shape, dtype):
    pool = AvgPool(3, 2, 1)
    x = _random(6, x_shape, dtype)
    x[0, 0, 1:4, 1:4] = -0.0  # an inner window of negative zeros: the sum starts at +0
    y, cache = pool.forward(_chwn(x), {}, {}, True, None)
    assert_bitwise(_nchw(y), _reference_avgpool_forward(pool, x))
    dy = _random(7, _nchw(y).shape, dtype)
    dx, _ = pool.backward(_chwn(dy), cache, {})
    share = np.broadcast_to((dy / 9)[:, :, None, None], dy.shape[:2] + (3, 3) + dy.shape[2:])
    assert_bitwise(_nchw(dx), _reference_col2im(share, x_shape, 3, 2, 1))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("x_shape", [(128, 16, 20, 40), (128, 256), (3, 5, 7, 9),
                                     (1, 8, 5, 10), (2, 5), (32, 4, 8, 16)])
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
    dy = _random(13, x_shape, dtype)
    image = len(x_shape) == 4
    to_layers, from_layers = (_chwn, _nchw) if image else (np.asarray, np.asarray)
    y, cache = bn.forward(to_layers(x), p, s, training, None)
    dx, grads = bn.backward(to_layers(dy), cache, p)
    y, dx = from_layers(y), from_layers(dx)
    y_ref, dx_ref, dgamma_ref, dbeta_ref = _reference_batchnorm(x, dy, p, s_ref, training)
    # (N, F) arithmetic is the reference's; (C, H, W, N) reduces in a new order
    same = assert_close if image else (lambda a, ref, dtype: assert_bitwise(a, ref))
    same(y, y_ref, dtype)
    for key in s:
        same(s[key], s_ref[key], dtype)
    same(grads["gamma"], dgamma_ref, dtype)
    same(grads["beta"], dbeta_ref, dtype)
    # dx is a difference of terms of size |gamma * inv_std * dy|, which
    # cancel exactly at batch 2 (xhat = +-1 whatever x is)
    _, inv_std, _ = cache
    assert_close(dx, dx_ref, dtype,
                 scale=float(np.abs(p["gamma"] * inv_std).max() * np.abs(dy).max()))


# ---------------------------------------------------------------------------
# the first convolution of label maps against mask_channels + pad + im2col

def _reference_label_columns(conv, maps, features, dtype):
    """(C*k*k, OH*OW*N) columns of the float mask batch ``mask_channels``
    builds, padded and unfolded by the oracles above."""
    masks = mask_channels(maps, features).astype(dtype)
    oh, ow = conv.out_hw(*maps.shape[2:])
    cols = _reference_im2col(_reference_pad(masks, conv.pad), conv.k, conv.stride, oh, ow)
    return cols.transpose(1, 2, 3, 4, 5, 0).reshape(-1, oh * ow * len(maps)), masks


def _label_maps(seed, shape, absent=()):
    """Random uint8 label maps over the catalog, without the ``absent`` concepts."""
    ids = [i for i, name in enumerate(CATALOG.names) if name not in absent]
    return np.asarray(ids, dtype=np.uint8)[stream(seed, "maps").integers(len(ids), size=shape)]


# (first conv (c_out, stride), maps shape, features, concepts drawn absent)
LABEL_CASES = [
    ((16, 4), (128, 2, 80, 160), ("location", "vehicle"), ()),  # default arch
    ((4, 2), (32, 2, 16, 32), ("location", "vehicle"), ()),     # TINY: overlapping
    ((16, 4), (4, 2, 160, 320), ("location", "vehicle"), ()),   # maps at 2x, read as they are
    ((4, 2), (3, 2, 48, 64), ("location", "vehicle"), ()),      # 3x by 2x, read as they are
    ((4, 2), (5, 1, 16, 32), ("location", "vehicle"), ()),      # one camera
    ((4, 2), (5, 2, 16, 32), ("location", "vehicle", "building", "sky"), ()),
    ((4, 2), (5, 2, 16, 32), ("location", "vehicle", "pole"), ("pole",)),
]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("conv_spec,maps_shape,features,absent", LABEL_CASES)
def test_label_conv_columns_match_mask_oracle(conv_spec, maps_shape, features, absent,
                                              dtype):
    c_out, stride = conv_spec
    conv = LabelConv2d(concept_ids(features), maps_shape[1], c_out, 3, stride, 1)
    maps = _label_maps(20, maps_shape, absent)
    cols, y_shape = conv._columns(maps, dtype)
    cols_ref, masks = _reference_label_columns(conv, maps, features, dtype)
    assert_bitwise(cols, cols_ref)
    assert y_shape == (c_out,) + conv.out_hw(*maps_shape[2:]) + (maps_shape[0],)
    # so the layer is a Conv2d of the (C, H, W, N) masks, with no input gradient
    p, _ = conv.init(stream(0, "i"), dtype)
    plain = Conv2d(conv.c_in, c_out, 3, stride, 1)
    y, cache = conv.forward(maps, p, {}, True, None)
    y_ref, cache_ref = plain.forward(_chwn(masks), p, {}, True, None)
    assert_bitwise(y, y_ref)
    dy = _random(21, y.shape, dtype)
    no_dx, grads = conv.backward(dy, cache, p)
    _, grads_ref = plain.backward(dy, cache_ref, p)
    assert no_dx is None
    for key in grads_ref:
        assert_bitwise(grads[key], grads_ref[key])


# ---------------------------------------------------------------------------
# the whole predictor against a network of the NCHW oracles on the same
# parameters, fed the float mask batch: checkpoints keep their meaning

def _map_shape(arch):
    """(n_cams, H, W) of the two cameras' maps a test network of ``arch``
    reads: 16 x 32 for TINY_ARCH, 80 x 160 for the default."""
    return (2, 16, 32) if arch == TINY_ARCH else (2, 80, 160)


def _reference_forward(layer, x, p, s, training, rng):
    """NCHW forward of ``layer`` by the oracles above: (y, backward), where
    backward(dy) returns (dx, grads)."""
    if isinstance(layer, (Sequential, ResidualBlock)):
        def run(name, inp):
            y, back = _reference_forward(layer.children[name], inp, p[name], s[name],
                                         training, rng)

            def named_back(dy, grads):
                dx, grads[name] = back(dy)
                return dx
            return y, named_back
        if isinstance(layer, Sequential):
            backs = []
            for name in layer.children:
                x, b = run(name, x)
                backs.append(b)

            def back(dy):
                grads = {}
                for b in reversed(backs):
                    dy = b(dy, grads)
                return dy, grads
            return x, back
        y1, b1 = run("conv1", x)
        y2, b2 = run("bn1", y1)
        y4, b4 = run("conv2", np.maximum(y2, 0))
        y5, b5 = run("bn2", y4)
        sc, bp = run("proj", x) if "proj" in layer.children else (x, None)
        pre = y5 + sc

        def back(dy):
            grads = {}
            dpre = dy * (pre > 0)
            d3 = b4(b5(dpre, grads), grads) * (y2 > 0)
            dx = b1(b2(d3, grads), grads)
            return dx + (bp(dpre, grads) if bp else dpre), grads
        return np.maximum(pre, 0), back
    if isinstance(layer, Conv2d):
        y_shape = (len(x), layer.c_out) + layer.out_hw(*x.shape[2:])
        y = _reference_conv(layer, x, np.zeros(y_shape, x.dtype), p)[0]

        def back(dy):
            _, dx, dW, db, _ = _reference_conv(layer, x, dy, p)
            return dx, {"W": dW, "b": db}
        return y, back
    if isinstance(layer, BatchNorm):
        state = {k: v.copy() for k, v in s.items()}
        y = _reference_batchnorm(x, np.zeros_like(x), p, dict(state), training)[0]

        def back(dy):
            _, dx, dgamma, dbeta = _reference_batchnorm(x, dy, p, dict(state), training)
            return dx, {"gamma": dgamma, "beta": dbeta}
        return y, back
    if isinstance(layer, Dense):
        return x @ p["W"].T + p["b"], lambda dy: (dy @ p["W"], {"W": dy.T @ x,
                                                                 "b": dy.sum(axis=0)})
    if isinstance(layer, ReLU):
        return np.maximum(x, 0), lambda dy: (dy * (x > 0), {})
    if isinstance(layer, AvgPool):
        def back(dy):
            share = np.broadcast_to((dy / 9)[:, :, None, None],
                                    dy.shape[:2] + (3, 3) + dy.shape[2:])
            return _reference_col2im(share, x.shape, 3, layer.stride, layer.pad), {}
        return _reference_avgpool_forward(layer, x), back
    if isinstance(layer, Flatten):
        return x.reshape(len(x), -1), lambda dy: (dy.reshape(x.shape), {})
    if isinstance(layer, Dropout):
        mask = ((rng.random(x.shape) < 1 - layer.rate) / (1 - layer.rate)).astype(x.dtype) \
            if training else np.ones_like(x)
        return x * mask, lambda dy: (dy * mask, {})
    raise TypeError(layer)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("task,arch,n", [("beam", TINY_ARCH, 32), ("blockage", TINY_ARCH, 6),
                                         ("beam", ArchConfig(), 8)])
def test_predictor_matches_nchw_reference_network(task, arch, n, training, dtype):
    features = ("location", "vehicle", "building")
    model = Predictor(task, features, _map_shape(arch), 8, arch)
    params, state = model.init(5, dtype)
    for _, d, k in leaves(state):  # nontrivial running statistics for evaluation mode
        d[k] = (np.abs(_random(30, d[k].shape, dtype)) + 0.5 if k.endswith("var")
                else _random(31, d[k].shape, dtype))
    maps = _label_maps(32, (n,) + _map_shape(arch))
    loc = _random(33, (n, 3), dtype)
    labels = stream(34, "labels").integers(8 if task == "beam" else 2, size=n)
    out, cache = model.forward(params, copy.deepcopy(state), loc, maps, training,
                               [stream(0, "dropout")])
    _, dout = _batch_loss_grad(model, out, labels[:, None])
    grads = model.backward(dout, cache, params)

    def run(name, x):
        return _reference_forward(model.children[name], x, params[name],
                                  state[name], training, stream(0, "dropout"))

    a, back_aux = run("aux", loc)
    m, back_sem = run("sem", mask_channels(maps, features).astype(dtype))
    out_ref, back_head = run("head", np.concatenate([a, m], axis=1))
    assert_close(out, out_ref, dtype)
    dx, g_head = back_head(dout)
    _, g_sem = back_sem(dx[:, a.shape[1]:])
    _, g_aux = back_aux(dx[:, :a.shape[1]])
    grads, params = named(grads), named(params)
    grads_ref = named({"aux": g_aux, "sem": g_sem, "head": g_head})
    assert grads.keys() == grads_ref.keys() == params.keys()
    if dtype == np.float32:
        return  # float32 rounding grows along the backward chain; the layer oracles bound it
    # a shift ahead of a batch-statistics BatchNorm (a bias, or the beta of
    # the location BatchNorm) has zero gradient, so both sides are rounding
    # noise: each tensor is measured against the largest gradient of its layer
    for key in params:
        layer = key.rsplit(".", 1)[0]
        scale = max(float(np.abs(v).max()) for k, v in grads_ref.items()
                    if k.rsplit(".", 1)[0] == layer)
        assert_close(grads[key], grads_ref[key], dtype, scale=scale)


# ---------------------------------------------------------------------------
# per-call fast paths against the code they replaced, bit for bit: the
# per-tensor Adam, np.pad and the ndarray.mean batch norm

class _ReferenceAdam:
    """Adam with one moment pair per tensor, updating the tensors of the
    ``params`` tree in place; one model, or a stack of one."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, models=1):
        assert models == 1
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in named(params).items()}
        self.v = {k: np.zeros_like(v) for k, v in named(params).items()}

    def step(self, params, grads):
        self.t += 1
        b1t = 1 - self.beta1 ** self.t
        b2t = 1 - self.beta2 ** self.t
        params = named(params)
        for k, g in named(grads).items():
            m = self.m[k]
            v = self.v[k]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            params[k] -= (self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)).astype(params[k].dtype)


def _reference_pad_chwn(x, pad):
    """(C, H, W, N) input with ``pad`` zeros around H and W, by np.pad."""
    return np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else x


class _ReferenceBatchNorm(BatchNorm):
    """Batch norm through ndarray.mean and ndarray.sum, with a fresh array
    for every intermediate."""

    def forward(self, x, p, s, training, rng):
        axes, shp = self._axes(x), self._shape(x)
        if training:
            mean = x.mean(axis=axes)
            xc = x - mean.reshape(shp)
            var = (xc * xc).mean(axis=axes)
            s["running_mean"] *= 1 - 0.1
            s["running_mean"] += (0.1 * mean).astype(s["running_mean"].dtype)
            s["running_var"] *= 1 - 0.1
            s["running_var"] += (0.1 * var).astype(s["running_var"].dtype)
        else:
            mean, var = s["running_mean"], s["running_var"]
            xc = x - mean.reshape(shp)
        inv_std = 1.0 / np.sqrt(var + 1e-5)
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
            m = dy.size // dbeta.size
            dx = dy - (dbeta / m).reshape(shp)
            dx -= xhat * (dgamma / m).reshape(shp)
            dx *= scale
        else:
            dx = dy * scale
        return dx, {"gamma": dgamma, "beta": dbeta}


def _random_grads(seed, params):
    """A gradient tree shaped like ``params``, spread over five decades,
    with some exact zeros."""
    rng = stream(seed, "grads")
    grads = copy.deepcopy(params)
    for _, d, k in leaves(grads):
        g = rng.normal(size=d[k].shape) * 10.0 ** rng.uniform(-4, 1, size=d[k].shape)
        g[rng.random(d[k].shape) < 0.05] = 0
        d[k] = g.astype(d[k].dtype)
    return grads


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("task,arch", [("beam", TINY_ARCH), ("blockage", TINY_ARCH),
                                       ("beam", ArchConfig())])
def test_flat_adam_matches_per_tensor_reference(task, arch, dtype):
    params, _ = Predictor(task, ("location", "vehicle", "building"), _map_shape(arch), 8,
                          arch).init(3, dtype)
    ref = copy.deepcopy(params)
    opt = Adam(params, lr=3e-3)
    opt_ref = _ReferenceAdam(ref, lr=3e-3)
    got, want = named(params), named(ref)
    assert got.keys() == want.keys()
    for k in got:  # each parameter is a view of the one buffer
        assert np.shares_memory(got[k], opt.flat) and got[k].shape == want[k].shape
        assert_bitwise(got[k], want[k])
    for step in range(5):
        # the reference takes the gradients in reverse name order, as a
        # backward pass delivers them
        grads = _random_grads(step, params)
        opt.step(params, grads)
        opt_ref.step(ref, dict(reversed(named(grads).items())))
        got, want = named(params), named(ref)
        for k in got:
            assert_bitwise(got[k], want[k])
    assert opt.flat.dtype == dtype


def test_flat_adam_errors():
    params = {"a": {"W": np.ones((2, 3), np.float32), "b": np.zeros(3, np.float32)}}
    opt = Adam(params)
    with pytest.raises(KeyError, match="a.b"):
        opt.step(params, {"a": {"W": np.ones((2, 3), np.float32)}})
    with pytest.raises(KeyError, match="z"):
        opt.step(params, {"a": {"W": np.ones((2, 3), np.float32),
                                "b": np.ones(3, np.float32)}, "z": np.ones(1, np.float32)})
    params["a"]["b"] = params["a"]["b"].copy()  # no longer a view of the buffer
    with pytest.raises(ValueError, match="a.b"):
        opt.step(params, {"a": {"W": np.ones((2, 3), np.float32), "b": np.ones(3, np.float32)}})
    assert opt.t == 0
    with pytest.raises(ValueError, match="dtype"):
        Adam({"w": np.ones(2, np.float32), "b": np.ones(2, np.float64)})


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape,pad", [((4, 8, 16, 32), 1), ((3, 7, 9, 2), 2),
                                       ((2, 5, 6, 1), 0), ((16, 20, 40, 128), 1)])
def test_pad_matches_np_pad(shape, pad, dtype):
    x = _random(40, shape, dtype)
    x[0, 0, 0] = -0.0  # signed zeros survive the copy
    c, h, w, n = shape
    xp = np.full((c, h + 2 * pad, w + 2 * pad, n), np.nan, dtype)  # the border is written
    assert_bitwise(_pad(x, pad, xp), _reference_pad_chwn(x, pad))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("x_shape", [(4, 8, 16, 32), (16, 20, 40, 128), (3, 5, 7, 2),
                                     (32, 3), (128, 256), (2, 5)])
def test_batchnorm_matches_ndarray_mean_reference(x_shape, training, dtype):
    c = x_shape[0] if len(x_shape) == 4 else x_shape[1]
    bn, bn_ref = BatchNorm(c), _ReferenceBatchNorm(c)
    p, s = bn.init(stream(0, "i"), dtype)
    p["gamma"] = _random(41, p["gamma"].shape, dtype)
    p["beta"] = _random(42, p["beta"].shape, dtype)
    s["running_mean"] = _random(43, s["running_mean"].shape, dtype)
    s["running_var"] = np.abs(_random(44, s["running_var"].shape, dtype)) + 0.5
    s_ref = {k: v.copy() for k, v in s.items()}
    x = _random(45, x_shape, dtype) * 3 + 1
    dy = _random(46, x_shape, dtype)
    for _ in range(2):  # the second pass starts from updated running stats
        y, cache = bn.forward(x, p, s, training, None)
        y_ref, cache_ref = bn_ref.forward(x.copy(), p, s_ref, training, None)
        assert_bitwise(y, y_ref)
        for a, ref in zip(cache[:2], cache_ref[:2]):
            assert_bitwise(a, ref)
        for k in s:
            assert_bitwise(s[k], s_ref[k])
        dx, grads = bn.backward(dy, cache, p)
        dx_ref, grads_ref = bn_ref.backward(dy, cache_ref, p)
        assert_bitwise(dx, dx_ref)
        for k in grads_ref:
            assert_bitwise(grads[k], grads_ref[k])


def _synthetic_sampleset(n=48, hw=(16, 32), M_bm=8):
    rng = stream(49, "synthetic")
    return SampleSet(label_maps=_label_maps(50, (n, 2) + hw),
                     locations=rng.normal(size=(n, 3)).astype(np.float32),
                     rates=rng.exponential(size=(n, M_bm)),
                     blockage=rng.integers(2, size=(n, 1)).astype(np.uint8),
                     frame_ids=np.arange(n, dtype=np.uint32), horizons=(1,))


@pytest.mark.parametrize("task", ["beam", "blockage"])
def test_train_with_flat_adam_matches_per_tensor_adam(task, monkeypatch):
    dataset = _synthetic_sampleset()
    cfg = TrainConfig(learning_rate=3e-3, batch_size=16, epochs=3, seed=2, arch=TINY_ARCH)
    features = ("location", "vehicle", "building")
    res = predictor.train(dataset, features, task, cfg)
    monkeypatch.setattr(predictor, "Adam", _ReferenceAdam)
    res_ref = predictor.train(dataset, features, task, cfg)
    assert np.array(res.train_loss).tobytes() == np.array(res_ref.train_loss).tobytes()
    for got, ref in ((res.params, res_ref.params), (res.state, res_ref.state)):
        got, ref = named(got), named(ref)
        assert got.keys() == ref.keys()
        for k in ref:
            assert_bitwise(got[k], ref[k])


def _assert_same_result(got, want):
    assert got.model.features == want.model.features
    assert all(np.array_equal(a, b) for a, b in zip(got.split, want.split))
    assert np.array(got.train_loss).tobytes() == np.array(want.train_loss).tobytes()
    assert got.val_accuracy == want.val_accuracy
    for a, b in ((got.params, want.params), (got.state, want.state)):
        a, b = named(a), named(b)
        assert a.keys() == b.keys()
        for name in b:
            assert_bitwise(a[name], b[name])


@pytest.mark.parametrize("task", ["beam", "blockage"])
def test_train_stack_matches_each_set_trained_alone(task, monkeypatch):
    """Every model of a training stack is bit for bit the model its set
    trains alone, as a stack of one with the same config and seed:
    parameters, state, epoch losses and validation accuracy; ``train`` is
    the stack of one whose seed is the config's. So is every model of a
    call that ``stack_size`` cuts into several stacks."""
    dataset = _synthetic_sampleset(n=81)
    cfg = TrainConfig(learning_rate=3e-3, batch_size=8, epochs=2, seed=0, arch=TINY_ARCH)
    seeds = [0, 2, 3, 1] + list(range(4, 19))
    sets = [("location", name) for name in CATALOG.names[:19]]
    alone = [predictor.train_stack(dataset, [feats], task, cfg, [seed])[0]
             for feats, seed in zip(sets, seeds)]
    # 8-sample batches and a last batch of one sample, which training skips
    assert len(alone[0].split[0]) == 8 * 7 + 1
    _assert_same_result(predictor.train(dataset, sets[0], task, cfg), alone[0])
    for k in (1, 2, 5, 19):
        for got, want in zip(predictor.train_stack(dataset, sets[:k], task, cfg, seeds[:k]),
                             alone):
            _assert_same_result(got, want)
    # room for two models a stack: five sets train as stacks of 2, 2 and 1
    monkeypatch.setattr(predictor, "_STACK_PIXELS",
                        2 * int(np.prod(dataset.map_shape)) * cfg.batch_size)
    assert predictor.stack_size(dataset.map_shape, cfg.batch_size) == 2
    runs, train_run = [], predictor._train_stack

    def record(dataset, labels, models, *args):
        runs.append(len(models))
        return train_run(dataset, labels, models, *args)
    monkeypatch.setattr(predictor, "_train_stack", record)
    for got, want in zip(predictor.train_stack(dataset, sets[:5], task, cfg, seeds[:5]), alone):
        _assert_same_result(got, want)
    assert runs == [2, 2, 1]


def test_train_stack_groups_mixed_set_sizes_and_rejects_missing_seeds(monkeypatch):
    """Sets of several sizes train as one stack per size, in the order each
    size first appears, and come back in the given order, each bit for bit
    what it gives alone."""
    dataset = _synthetic_sampleset()
    cfg = TrainConfig(batch_size=8, epochs=1, arch=TINY_ARCH)
    sets = [("location", "vehicle"), ("location",), ("location", "building", "vehicle"),
            ("location", "pole")]
    seeds = [4, 0, 2, 1]
    alone = [predictor.train_stack(dataset, [feats], "beam", cfg, [seed])[0]
             for feats, seed in zip(sets, seeds)]
    runs, train_run = [], predictor._train_stack

    def record(dataset, labels, models, *args):
        runs.append([m.features for m in models])
        return train_run(dataset, labels, models, *args)
    monkeypatch.setattr(predictor, "_train_stack", record)
    for got, want in zip(predictor.train_stack(dataset, sets, "beam", cfg, seeds), alone,
                         strict=True):
        _assert_same_result(got, want)
    assert runs == [[sets[0], sets[3]], [sets[1]], [sets[2]]]
    with pytest.raises(ValueError, match="one seed per feature set"):
        predictor.train_stack(dataset, [("location", "vehicle")], "beam", cfg, [0, 1])


# ---------------------------------------------------------------------------
# two lanes against one, bit for bit: each channel of a split pass, and each
# GEMM column, is computed by the arithmetic of the whole pass

def _on_lanes(monkeypatch, fn):
    """The arrays ``fn()`` returns on one lane and on two, as two lists."""
    runs = []
    for n in (1, 2):
        monkeypatch.setattr(lanes, "_lanes", n)
        runs.append([np.asarray(a) for a in fn()])
    return runs


def assert_lanes_agree(monkeypatch, fn):
    one, two = _on_lanes(monkeypatch, fn)
    assert len(one) == len(two)
    for a, b in zip(one, two):
        assert_bitwise(b, a)


def _sliced_grad(seed, shape, dtype):
    """A gradient (C, H, W, N) laid out as ``_col2im`` returns one: the
    interior of a padded array, not contiguous."""
    c, h, w, n = shape
    return _random(seed, (c, h + 2, w + 2, n), dtype)[:, 1:1 + h, 1:1 + w]


# (C, H, W, N): halves of 1, 2 and 3 channels, 2 and 3 channels, and the
# default arch's first image activation at batch 128
LANE_SHAPES = [(2, 7, 9, 5), (4, 8, 16, 32), (6, 5, 10, 3), (5, 3, 5, 8), (16, 20, 40, 128)]


def _split_passes(shape, dtype):
    """Calls that return the outputs of BatchNorm in both modes, ReLU,
    AvgPool, convolutions (padding, im2col, GEMMs) and the im2col adjoint,
    forward and backward on (C, H, W, N) input ``shape``, with a
    non-contiguous input gradient."""
    c = shape[0]
    x = _random(60, shape, dtype)
    x[0, 0, 0] = -0.0  # signed zeros survive every pass
    dy = _sliced_grad(61, shape, dtype)
    assert not dy.flags.c_contiguous

    def bn(training):
        layer = BatchNorm(c)
        p, s = layer.init(stream(0, "i"), dtype)
        p["gamma"], p["beta"] = _random(62, (c,), dtype), _random(63, (c,), dtype)
        s["running_var"] += 0.5
        y, cache = layer.forward(x, p, s, training, None)
        dx, grads = layer.backward(dy, cache, p)
        return [y, *cache[:2], *s.values(), dx, *grads.values()]

    def layer(module, x):
        y, cache = module.forward(x, {}, {}, True, None)
        dx, _ = module.backward(_sliced_grad(64, y.shape, dtype), cache, {})
        return [y, dx]

    def conv(c_out, k, stride, pad):
        module = Conv2d(c, c_out, k, stride, pad)
        p, _ = module.init(stream(0, "i"), dtype)
        y, cache = module.forward(x, p, {}, True, None)
        dx, grads = module.backward(_sliced_grad(65, y.shape, dtype), cache, p)
        return [y, dx, *grads.values(), cache[0]]

    dcols = _random(66, (c, 3, 3) + AvgPool().out_hw(*shape[1:3]) + shape[3:], dtype)
    return [lambda: bn(True), lambda: bn(False), lambda: layer(ReLU(), x),
            lambda: layer(AvgPool(3, 2, 1), x), lambda: conv(4, 3, 2, 1),
            lambda: conv(3, 3, 1, 1), lambda: conv(8, 1, 2, 0),
            lambda: [_col2im(dcols, shape, 3, 2, 1)]]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", LANE_SHAPES)
def test_split_passes_on_two_lanes_match_one(shape, dtype, monkeypatch):
    for fn in _split_passes(shape, dtype):
        assert_lanes_agree(monkeypatch, fn)


@pytest.mark.parametrize("n_cams,n_ids,models", [(1, 1, 1), (2, 1, 1), (2, 3, 1), (3, 2, 1),
                                                 (2, 2, 3)])
def test_label_columns_on_two_lanes_match_one(n_cams, n_ids, models, monkeypatch):
    """The taps of 1, 2 or 3 cameras and the one-hot columns, for a model
    and for a stack."""
    ids = np.stack([concept_ids(("location",) + CATALOG.names[s:s + n_ids])
                    for s in range(models)])
    conv = LabelConv2d(ids, n_cams, 4, 3, 2, 1)
    maps = _label_maps(67, (9, models * n_cams, 16, 32))
    assert_lanes_agree(monkeypatch, lambda: [conv._columns(maps, np.float32)[0]])


def _lane_networks():
    """(models of a stack, map size, batch): the default arch's beam and
    blockage networks at 80x160, TINY_ARCH's at 16x32, and a stack of
    three TINY_ARCH networks."""
    features = ("location", "vehicle", "building")
    nets = [([Predictor(task, features, (2, 80, 160), 16, ArchConfig())], (80, 160), n)
            for task in ("beam", "blockage") for n in (128, 7)]
    nets += [([Predictor("beam", features, (2, 16, 32), 8, TINY_ARCH)], (16, 32), n)
             for n in (32, 3)]
    trio = [Predictor("beam", ("location", name), (2, 16, 32), 8, TINY_ARCH)
            for name in CATALOG.names[:3]]
    return nets + [(trio, (16, 32), 32)]


def _run_network(models, hw, n, training, dtype):
    """Output, state and gradients of one forward and backward pass."""
    net = Predictor.stack(models)
    trees = [m.init(seed, dtype) for seed, m in enumerate(models)]
    params = predictor.tree_map(lambda *a: np.stack(a), *(p for p, _ in trees))
    state = predictor.tree_map(lambda *a: np.stack(a), *(s for _, s in trees))
    if len(models) == 1:
        params, state = trees[0]
    s = len(models)
    maps = _label_maps(68, (n, s * 2) + hw)
    loc = _random(69, (n, s * 3), dtype)
    labels = stream(70, "labels").integers(2, size=(n, s))
    out, cache = net.forward(params, state, loc, maps, training,
                             [stream(i, "dropout") for i in range(s)])
    _, dout = _batch_loss_grad(net, out, labels)
    grads = net.backward(dout, cache, params)
    return [out, *named(state).values(), *named(grads).values()]


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("index", range(7))
def test_networks_on_two_lanes_match_one(index, training, monkeypatch):
    network = _lane_networks()[index]
    with blas.one_thread():
        assert_lanes_agree(monkeypatch, lambda: _run_network(*network, training, np.float32))


# what each output of a split pass holds before its kernel runs, by dtype kind
_POISON = {"f": np.nan, "u": 0xA5, "b": True}


def _poisoned(split):
    """``lanes.split`` whose ``outs()`` arrays come filled with NaN, 0xA5 or
    True, so that an output entry no kernel writes shows."""
    def poisoned_split(kernel, arrays, shared=(), outs=tuple, axis=0):
        def poisoned_outs():
            whole = outs()
            for a in whole:
                if a is not None:
                    a.fill(_POISON[a.dtype.kind])
            return whole
        return split(kernel, arrays, shared, poisoned_outs, axis)
    return poisoned_split


@pytest.mark.parametrize("case", [*LANE_SHAPES, *range(7)], ids=str)
def test_split_kernels_write_every_output(case, monkeypatch):
    """The split passes at each of ``LANE_SHAPES`` and each network of
    ``_lane_networks`` in both modes give the same bits with poisoned
    outputs, on one lane and on two, as with fresh outputs on one lane."""
    if isinstance(case, int):
        network = _lane_networks()[case]
        fns = [functools.partial(_run_network, *network, training, np.float32)
               for training in (True, False)]
    else:
        fns = _split_passes(case, np.float32)
    with blas.one_thread():
        for fn in fns:
            monkeypatch.setattr(lanes, "_lanes", 1)
            want = [np.asarray(a) for a in fn()]
            with monkeypatch.context() as poisoning:
                poisoning.setattr(lanes, "split", _poisoned(lanes.split))
                for got in _on_lanes(poisoning, fn):
                    assert len(got) == len(want)
                    for a, b in zip(got, want):
                        assert_bitwise(a, b)


def test_conv_gemms_as_column_halves_match_whole_gemms(monkeypatch):
    """Each convolution GEMM of the networks above, forward and input
    gradient, on one BLAS thread: ``_conv_gemm`` on two lanes gives the
    whole GEMM's bits. So do two column halves computed one after the
    other, where ``_conv_gemm`` splits; a small GEMM, which it does not
    split, may round otherwise in halves."""
    calls, conv_gemm = [], nn._conv_gemm
    monkeypatch.setattr(nn, "_conv_gemm", lambda *args: calls.append(args) or conv_gemm(*args))
    with blas.one_thread():
        for network in _lane_networks():
            _run_network(*network, True, np.float32)
        monkeypatch.setattr(lanes, "_lanes", 2)
        split = 0
        for a, bias, b in calls:
            whole = np.matmul(a, b) + (0 if bias is None else bias)
            assert_bitwise(conv_gemm(a, bias, b), whole)
            half = b.shape[2] // 2
            if a.shape[1] * a.shape[2] * half >= nn._GEMM_HALF_MIN:
                split += 1
                monkeypatch.setattr(lanes, "_lanes", 1)
                halves = [conv_gemm(a, bias, b[..., :half]), conv_gemm(a, bias, b[..., half:])]
                monkeypatch.setattr(lanes, "_lanes", 2)
                assert_bitwise(np.concatenate(halves, axis=2), whole)
    # the default arch at batch 128: each first convolution's forward GEMM,
    # the beam network's second convolution's forward and input gradient
    assert split == 4


def test_a_lane_exception_is_raised_in_the_caller(monkeypatch):
    """An exception of either half is raised by the split call once both
    halves are done; the lanes still work after it."""
    monkeypatch.setattr(lanes, "_lanes", 2)
    threads = []

    def kernel(fail_at, a):
        threads.append(threading.get_ident())
        if a[0] == fail_at:
            raise ValueError(f"half {a.tolist()}")

    with pytest.raises(ValueError, match=r"half \[2, 3, 4\]"):
        lanes.split(kernel, (np.arange(5),), (2,))
    with pytest.raises(ValueError, match=r"half \[0, 1\]"):
        lanes.split(kernel, (np.arange(5),), (0,))
    assert len(set(threads)) == 2 and threading.get_ident() in threads
    x = _random(71, (3, 4, 4, 2), np.float32)
    y, mask = ReLU().forward(x, {}, {}, True, None)
    assert_bitwise(y, np.maximum(x, 0))
    assert_bitwise(mask, x > 0)


def test_layer_methods_run_on_the_calling_thread(monkeypatch):
    """Training on two lanes calls every layer method, which a span tracer
    wraps, on the thread that trains; the helper thread runs kernels only."""
    threads = set()

    def on_caller(fn):
        def wrapper(*args, **kwargs):
            threads.add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper
    classes = [c for c in vars(nn).values() if isinstance(c, type)] + [Predictor]
    for cls in classes:
        for name in ("forward", "backward", "step", "_columns"):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, on_caller(vars(cls)[name]))
    monkeypatch.setattr(lanes, "_lanes", 2)
    dataset = _synthetic_sampleset()
    cfg = TrainConfig(batch_size=16, epochs=1, arch=TINY_ARCH)
    predictor.train(dataset, ("location", "vehicle"), "beam", cfg)
    assert threads == {threading.get_ident()}
    assert lanes._helper is not None and lanes._helper[0].is_alive()
