import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from streetbeam.beams import dft_codebook, full_outages, optimal_beam, topg_accuracy, trr
from streetbeam.channel import RayTraceConfig, assemble_channel, trace_paths
from streetbeam.rng import stream
from streetbeam.scene import SceneConfig, generate_scenario


def random_channel(rng, K, N_t):
    return (rng.normal(size=(K, N_t)) + 1j * rng.normal(size=(K, N_t))) / np.sqrt(N_t)


def _reference_rates(h, codebook, P_k, sigma2):
    """Per-codeword loop: one matrix-vector product and one mean-log2 rate
    per codeword, each its own mean over the K subcarriers."""
    rates = []
    for w in codebook:
        gains = np.abs(h @ w) ** 2
        rates.append(float(np.mean(np.log2(1 + (P_k / sigma2) * gains))))
    return np.array(rates)


def _reference_trr(channels, codebook, topg_sets, G, P_k, sigma2):
    """TRR searched from the channels, as it was before the rates were
    stored: one ``optimal_beam`` per sample, ratio of the best Top-G rate to
    the optimal rate, zero-rate samples skipped. ``trr`` on the rate rows of
    the same channels must reproduce it bit for bit."""
    if len(channels) != len(topg_sets):
        raise ValueError("channels and Top-G sets have different lengths")
    ratios = []
    for ch, s in zip(channels, topg_sets):
        if len(s) != G:
            raise ValueError(f"every Top-G set must have exactly {G} indices")
        rates = optimal_beam(ch, codebook, P_k, sigma2)
        opt = rates[rates.argmax()]
        if opt <= 0:
            continue
        ratios.append(max(rates[i] for i in s) / opt)
    if not ratios:
        raise ValueError("no valid samples for TRR")
    return float(np.mean(ratios))


def assert_near_reference(rates, h, codebook, P_k, sigma2):
    """``rates`` are within ``oracles.rate_tolerance`` of the extended-precision
    rates of ``h``, and their argmax is optimal within twice that bound."""
    ref = oracles.rates_reference(h, codebook, P_k, sigma2)
    tol = oracles.rate_tolerance(h, codebook, P_k, sigma2)
    assert np.all(np.abs(rates - ref) <= tol)
    best = rates.argmax()
    assert ref[best] >= ref.max() - 2 * tol[best]


def rate_rows(channels, codebook, P_k, sigma2):
    return np.stack([optimal_beam(h, codebook, P_k, sigma2) for h in channels])


def street_channels(rt, frames=100, seed=503):
    """Traced channels of every frame with a target user on the
    acceptance-criterion-7 street (dense traffic, base station at 2 m)."""
    scene = SceneConfig(frame_count=frames, seed=seed, spawn_rate=0.6,
                        bs_position=(100.0, -8.0, 2.0))
    frames = [f for f in generate_scenario(scene) if f.target_user_id is not None]
    paths, n_paths, _ = trace_paths(frames, scene, rt)
    return [assemble_channel(p[:n], rt) for p, n in zip(paths, n_paths)]


def test_dft_codebook_2x2():
    cb = dft_codebook(2, 2)
    assert cb.dtype == np.complex128 and cb.shape == (2, 2)
    assert np.allclose(cb[0], [1, 1] / np.sqrt(2))
    assert np.allclose(cb[1], [1, -1] / np.sqrt(2))


def test_dft_codebook_orthogonal_unit_norm():
    cb = dft_codebook(16, 16)
    gram = cb @ cb.conj().T
    assert np.allclose(gram, np.eye(16), atol=1e-12)
    cb2 = dft_codebook(8, 32)
    assert np.allclose(np.linalg.norm(cb2, axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        dft_codebook(0, 4)


def test_rate_trivial_cases():
    e = np.eye(4, dtype=complex)
    zero = np.zeros((1, 4), dtype=complex)
    assert optimal_beam(zero, e, 1.0, 0.1).tolist() == [0.0] * 4
    h = np.array([[1.0, 0, 0, 0]], dtype=complex)
    assert optimal_beam(h, e, 1.0, 1.0).tolist() == [1.0, 0, 0, 0]  # log2(1 + 1)
    # the rate follows the SNR P_k / sigma2, not either power alone
    for P_k, sigma2, want in ((3.0, 1.0, 2.0), (7.0, 1.0, 3.0), (3.5, 0.5, 3.0)):
        assert optimal_beam(h, e, P_k, sigma2)[0] == want  # log2(1 + SNR)
    with pytest.raises(ValueError, match="dimensions differ"):
        optimal_beam(h, dft_codebook(3, 3), 1.0, 1.0)


def test_rate_scalar_oracle():
    rng = stream(1, "test.rate")
    for _ in range(20):
        K, N_t = 5, 6
        h = random_channel(rng, K, N_t)
        cb = random_channel(rng, 3, N_t)
        got = optimal_beam(h, cb, 2.0, 0.5)
        for m, w in enumerate(cb):
            oracle = sum(np.log2(1 + (2.0 / 0.5) * abs(sum(h[k, n] * w[n] for n in range(N_t))) ** 2)
                         for k in range(K)) / K
            assert got[m] == pytest.approx(oracle, rel=1e-12)


def test_optimal_beam_brute_force_oracle():
    rng = stream(2, "test.opt")
    # (K, N_t, M_bm): square, oversampled, single-subcarrier and an N_t that
    # is not a multiple of the channel's split tables
    for K, N_t, M_bm in ((4, 8, 8), (16, 16, 16), (128, 64, 64), (5, 6, 11), (1, 4, 4),
                         (5, 12, 7)):
        cb = dft_codebook(N_t, M_bm)
        for snr in (0.1, 10.0, 1e4):
            chans = [random_channel(rng, K, N_t) for _ in range(10)] + \
                [np.zeros((K, N_t), dtype=complex)]
            for h in chans:
                rates = optimal_beam(h, cb, snr, 1.0)
                assert rates.shape == (M_bm,)
                assert_near_reference(rates, h, cb, snr, 1.0)
                assert_near_reference(_reference_rates(h, cb, snr, 1.0), h, cb, snr, 1.0)
            # a leading batch axis gives each channel its own call's rate row
            rows = [optimal_beam(h, cb, snr, 1.0) for h in chans]
            assert optimal_beam(np.stack(chans), cb, snr, 1.0).tobytes() == np.stack(rows).tobytes()


@pytest.mark.parametrize("rt, M_bm", [(RayTraceConfig(), 64), (RayTraceConfig(N_t=16, K=16), 16),
                                      (RayTraceConfig(N_t=12, K=5), 7)],
                         ids=["default", "Nt16-K16", "Nt12-K5-M7"])
def test_optimal_beam_bitwise_on_street_channels(rt, M_bm):
    cb = dft_codebook(rt.N_t, M_bm)
    chans = street_channels(rt)
    assert len(chans) > 90
    # batches of 3 channels: the rows must not depend on the batch
    batched = np.concatenate([optimal_beam(np.stack(chans[i:i + 3]), cb, rt.P_k, rt.sigma2)
                              for i in range(0, len(chans), 3)])
    whole = optimal_beam(np.stack(chans), cb, rt.P_k, rt.sigma2)
    for ch, row, one in zip(chans, batched, whole):
        rates = optimal_beam(ch, cb, rt.P_k, rt.sigma2)
        assert rates.dtype == np.float64
        assert rates.tobytes() == row.tobytes() == one.tobytes()
        assert_near_reference(rates, ch, cb, rt.P_k, rt.sigma2)
        assert_near_reference(_reference_rates(ch, cb, rt.P_k, rt.sigma2), ch, cb, rt.P_k,
                              rt.sigma2)


def test_optimal_beam_zero_channel_tie_break():
    cb = dft_codebook(8, 8)
    assert optimal_beam(np.zeros((2, 8), dtype=complex), cb, 1.0, 0.1).argmax() == 0


def test_on_grid_path_matches_codeword():
    # single on-grid path: theta_el = pi/2 so sin = 1, cos(theta_az) = 2m/M
    # mapped into [-1, 1]; the conjugate-matched DFT codeword attains sqrt(N_t)
    N = M = 16
    cfg = RayTraceConfig(N_t=N, K=1, subcarrier_spacing=0.0)
    cb = dft_codebook(N, M)
    for m in range(M):
        c = 2 * m / M
        if c > 1:
            c -= 2  # wrap into [-1, 1]
        h = assemble_channel(np.array([[1.0, 0.0, 0.0, np.arccos(c), np.pi / 2]]), cfg)
        gains = np.abs(h[0] @ cb.T)
        assert gains[m] == pytest.approx(np.sqrt(N), abs=1e-9)
        assert optimal_beam(h, cb, 1.0, 0.1).argmax() == m


def test_argmax_invariant_under_snr_scaling():
    rng = stream(3, "test.scale")
    cb = dft_codebook(8, 8)
    # with K = 1 the rate is monotone in |h^T w|^2, so the argmax is
    # invariant to any positive scaling of P_k / sigma2
    for _ in range(10):
        h = random_channel(rng, 1, 8)
        i1 = optimal_beam(h, cb, 1.0, 0.1).argmax()
        i2 = optimal_beam(h, cb, 37.0, 0.1).argmax()
        assert i1 == i2


def test_topg_accuracy():
    labels = np.array([0, 1, 2, 3])
    assert topg_accuracy(labels, np.array([[0], [0], [2], [1]])) == 0.5
    full = np.tile(np.arange(4), (4, 1))
    assert topg_accuracy(labels, full) == 1.0


def test_trr_trivial_and_monotone():
    rng = stream(4, "test.trr")
    cb = dft_codebook(8, 8)
    chans = [random_channel(rng, 2, 8) for _ in range(12)]
    rates = rate_rows(chans, cb, 1.0, 0.1)
    labels = rates.argmax(axis=1)
    # sets containing the optimal index -> 1.0
    assert trr(rates, labels[:, None]) == pytest.approx(1.0)
    # monotone in G for nested sets, exactly 1 at G = M_bm
    prev_acc, prev_trr = 0.0, 0.0
    order = np.argsort(-rng.normal(size=(len(chans), 8)), axis=1, kind="stable")
    for G in (1, 2, 3, 8):
        a = topg_accuracy(labels, order[:, :G])
        t = trr(rates, order[:, :G])
        assert a >= prev_acc - 1e-12 and t >= prev_trr - 1e-12
        assert 0.0 <= t <= 1.0 + 1e-12
        prev_acc, prev_trr = a, t
    assert prev_acc == 1.0 and prev_trr == pytest.approx(1.0)


def test_trr_excludes_zero_optimal():
    cb = dft_codebook(4, 4)
    good = random_channel(stream(5, "t"), 1, 4)
    zero = np.zeros((1, 4), dtype=complex)
    rates = rate_rows([good, zero], cb, 1.0, 0.1)
    assert full_outages(rates).tolist() == [False, True]
    top = np.zeros((2, 1), dtype=int)
    assert trr(rates, top) == pytest.approx(trr(rates[:1], top[:1]))
    with pytest.raises(ValueError, match="no valid samples for TRR"):
        trr(rates[1:], top[1:])


def test_trr_on_rate_rows_bitwise_equals_channel_search():
    rng = stream(6, "test.trr.ref")
    # every shape of the brute-force oracle test, the zero channel included
    for K, N_t, M_bm in ((4, 8, 8), (16, 16, 16), (128, 64, 64), (5, 6, 11), (1, 4, 4)):
        cb = dft_codebook(N_t, M_bm)
        chans = [random_channel(rng, K, N_t) for _ in range(6)] + \
                [np.zeros((K, N_t), dtype=complex)]
        rates = rate_rows(chans, cb, 10.0, 1.0)
        order = np.argsort(-rng.normal(size=(len(chans), M_bm)), axis=1, kind="stable")
        for G in range(1, M_bm + 1):
            sets = [tuple(int(i) for i in row[:G]) for row in order]
            got = trr(rates, order[:, :G])
            want = _reference_trr(chans, cb, sets, G, 10.0, 1.0)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        # all-outage input: both fail the same way
        zero = [chans[-1]]
        with pytest.raises(ValueError, match="no valid samples for TRR"):
            _reference_trr(zero, cb, [(0,)], 1, 10.0, 1.0)
        with pytest.raises(ValueError, match="no valid samples for TRR"):
            trr(rates[-1:], order[-1:, :1])


@st.composite
def rate_tables(draw):
    """(rates, order): n rows of M codeword rates drawn from a few values,
    so that rows tie and some are full outages, and a stable score order."""
    n, M = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    value = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.25]) | st.floats(0, 20)
    rates = np.array(draw(st.lists(st.lists(value, min_size=M, max_size=M),
                                   min_size=n, max_size=n)))
    scores = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=M, max_size=M),
                                    min_size=n, max_size=n)))
    return rates, np.argsort(-scores, axis=1, kind="stable")


def _outcome(fn, *args):
    try:
        return json.dumps(fn(*args))
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(rate_tables())
def test_metrics_equal_per_sample_loops(table):
    """The array metrics give the JSON text of the per-sample loops they
    replace, for every G, on tied rates and full-outage rows."""
    rates, order = table
    labels = rates.argmax(axis=1)
    for G in range(1, rates.shape[1] + 1):
        sets = [tuple(int(i) for i in row[:G]) for row in order]
        assert (_outcome(topg_accuracy, labels, order[:, :G])
                == _outcome(oracles.topg_accuracy, labels, sets, G))
        assert (_outcome(trr, rates, order[:, :G])
                == _outcome(oracles.trr, rates, sets, G))
