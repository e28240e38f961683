import numpy as np
import pytest

from streetbeam.beams import dft_codebook, optimal_beam, topg_accuracy, trr
from streetbeam.channel import (PathComponent, RayTraceConfig, assemble_channel,
                                trace_paths)
from streetbeam.rng import stream
from streetbeam.scene import SceneConfig, generate_scenario


def random_channel(rng, K, N_t):
    return (rng.normal(size=(K, N_t)) + 1j * rng.normal(size=(K, N_t))) / np.sqrt(N_t)


def _reference_rates(h, codebook, P_k, sigma2):
    """Per-codeword loop: one mean-log2 rate per codeword, each its own mean
    over the K subcarriers. ``optimal_beam`` must reproduce it bit for bit."""
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
        ev = optimal_beam(ch, codebook, P_k, sigma2)
        opt = ev.rates[ev.optimal_index]
        if opt <= 0:
            continue
        ratios.append(max(ev.rates[i] for i in s) / opt)
    if not ratios:
        raise ValueError("no valid samples for TRR")
    return float(np.mean(ratios))


def rate_rows(channels, codebook, P_k, sigma2):
    return np.stack([optimal_beam(h, codebook, P_k, sigma2).rates for h in channels])


def street_channels(rt, frames=100, seed=503):
    """Traced channels of every frame with a target user on the
    acceptance-criterion-7 street (dense traffic, base station at 2 m)."""
    scene = SceneConfig(frame_count=frames, seed=seed, spawn_rate=0.6,
                        bs_position=(100.0, -8.0, 2.0))
    frames = [f for f in generate_scenario(scene) if f.target_user_id is not None]
    return [assemble_channel(paths, rt) for paths in trace_paths(frames, scene, rt)]


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
    assert optimal_beam(zero, e, 1.0, 0.1).rates.tolist() == [0.0] * 4
    h = np.array([[1.0, 0, 0, 0]], dtype=complex)
    assert optimal_beam(h, e, 1.0, 1.0).rates.tolist() == [1.0, 0, 0, 0]  # log2(1 + 1)
    # the rate follows the SNR P_k / sigma2, not either power alone
    for P_k, sigma2, want in ((3.0, 1.0, 2.0), (7.0, 1.0, 3.0), (3.5, 0.5, 3.0)):
        assert optimal_beam(h, e, P_k, sigma2).rates[0] == want  # log2(1 + SNR)
    with pytest.raises(ValueError, match="dimensions differ"):
        optimal_beam(h, dft_codebook(3, 3), 1.0, 1.0)


def test_rate_scalar_oracle():
    rng = stream(1, "test.rate")
    for _ in range(20):
        K, N_t = 5, 6
        h = random_channel(rng, K, N_t)
        cb = random_channel(rng, 3, N_t)
        got = optimal_beam(h, cb, 2.0, 0.5).rates
        for m, w in enumerate(cb):
            oracle = sum(np.log2(1 + (2.0 / 0.5) * abs(sum(h[k, n] * w[n] for n in range(N_t))) ** 2)
                         for k in range(K)) / K
            assert got[m] == pytest.approx(oracle, rel=1e-12)


def test_optimal_beam_brute_force_oracle():
    rng = stream(2, "test.opt")
    # (K, N_t, M_bm): square, oversampled and single-subcarrier codebooks
    for K, N_t, M_bm in ((4, 8, 8), (16, 16, 16), (128, 64, 64), (5, 6, 11), (1, 4, 4)):
        cb = dft_codebook(N_t, M_bm)
        for snr in (0.1, 10.0, 1e4):
            for h in [random_channel(rng, K, N_t) for _ in range(10)] + \
                     [np.zeros((K, N_t), dtype=complex)]:
                ev = optimal_beam(h, cb, snr, 1.0)
                want = _reference_rates(h, cb, snr, 1.0)
                assert ev.rates.shape == (M_bm,)
                assert ev.rates.tobytes() == want.tobytes()
                assert ev.optimal_index == int(np.argmax(want))


@pytest.mark.parametrize("rt", [RayTraceConfig(), RayTraceConfig(N_t=16, K=16)],
                         ids=["default", "Nt16-K16"])
def test_optimal_beam_bitwise_on_street_channels(rt):
    cb = dft_codebook(rt.N_t, rt.N_t)
    chans = street_channels(rt)
    assert len(chans) > 90
    for ch in chans:
        ev = optimal_beam(ch, cb, rt.P_k, rt.sigma2)
        want = _reference_rates(ch, cb, rt.P_k, rt.sigma2)
        assert ev.rates.tobytes() == want.tobytes()
        assert isinstance(ev.optimal_index, int)
        assert ev.optimal_index == int(np.argmax(want))


def test_optimal_beam_zero_channel_tie_break():
    cb = dft_codebook(8, 8)
    ev = optimal_beam(np.zeros((2, 8), dtype=complex), cb, 1.0, 0.1)
    assert ev.optimal_index == 0


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
        p = PathComponent(1.0, 0.0, 0.0, float(np.arccos(c)), np.pi / 2, True)
        h = assemble_channel([p], cfg)
        gains = np.abs(h[0] @ cb.T)
        assert gains[m] == pytest.approx(np.sqrt(N), abs=1e-9)
        ev = optimal_beam(h, cb, 1.0, 0.1)
        assert ev.optimal_index == m


def test_argmax_invariant_under_snr_scaling():
    rng = stream(3, "test.scale")
    cb = dft_codebook(8, 8)
    # with K = 1 the rate is monotone in |h^T w|^2, so the argmax is
    # invariant to any positive scaling of P_k / sigma2
    for _ in range(10):
        h = random_channel(rng, 1, 8)
        i1 = optimal_beam(h, cb, 1.0, 0.1).optimal_index
        i2 = optimal_beam(h, cb, 37.0, 0.1).optimal_index
        assert i1 == i2


def test_topg_accuracy():
    labels = [0, 1, 2, 3]
    sets = [(0,), (0,), (2,), (1,)]
    assert topg_accuracy(labels, sets, 1) == 0.5
    full = [tuple(range(4))] * 4
    assert topg_accuracy(labels, full, 4) == 1.0
    with pytest.raises(ValueError):
        topg_accuracy(labels, sets[:3], 1)
    with pytest.raises(ValueError):
        topg_accuracy(labels, [(0, 1)] * 4, 1)


def test_trr_trivial_and_monotone():
    rng = stream(4, "test.trr")
    cb = dft_codebook(8, 8)
    chans = [random_channel(rng, 2, 8) for _ in range(12)]
    rates = rate_rows(chans, cb, 1.0, 0.1)
    evs = [optimal_beam(h, cb, 1.0, 0.1) for h in chans]
    # sets containing the optimal index -> 1.0
    sets = [(e.optimal_index,) for e in evs]
    assert trr(rates, sets, 1) == pytest.approx(1.0)
    # monotone in G for nested sets, exactly 1 at G = M_bm
    prev_acc, prev_trr = 0.0, 0.0
    labels = [e.optimal_index for e in evs]
    scores = [rng.normal(size=8) for _ in chans]
    for G in (1, 2, 3, 8):
        gsets = [tuple(np.argsort(-s, kind="stable")[:G]) for s in scores]
        a = topg_accuracy(labels, gsets, G)
        t = trr(rates, gsets, G)
        assert a >= prev_acc - 1e-12 and t >= prev_trr - 1e-12
        assert 0.0 <= t <= 1.0 + 1e-12
        prev_acc, prev_trr = a, t
    assert prev_acc == 1.0 and prev_trr == pytest.approx(1.0)
    with pytest.raises(ValueError, match="different lengths"):
        trr(rates[:3], sets, 1)
    with pytest.raises(ValueError, match="exactly 2"):
        trr(rates, sets, 2)


def test_trr_excludes_zero_optimal():
    cb = dft_codebook(4, 4)
    good = random_channel(stream(5, "t"), 1, 4)
    zero = np.zeros((1, 4), dtype=complex)
    rates = rate_rows([good, zero], cb, 1.0, 0.1)
    sets = [(0,), (0,)]
    val = trr(rates, sets, 1)
    only_good = trr(rates[:1], [(0,)], 1)
    assert val == pytest.approx(only_good)
    with pytest.raises(ValueError, match="no valid samples for TRR"):
        trr(rates[1:], [(0,)], 1)


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
            got = trr(rates, sets, G)
            want = _reference_trr(chans, cb, sets, G, 10.0, 1.0)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        # all-outage input: both fail the same way
        zero = [chans[-1]]
        with pytest.raises(ValueError, match="no valid samples for TRR"):
            _reference_trr(zero, cb, [(0,)], 1, 10.0, 1.0)
        with pytest.raises(ValueError, match="no valid samples for TRR"):
            trr(rates[-1:], [(0,)], 1)
