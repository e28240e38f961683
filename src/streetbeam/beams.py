"""DFT codebook, exhaustive beam search over all codeword rates, Top-G metrics."""

import numpy as np


def dft_codebook(N_t: int, M_bm: int):
    """(M_bm, N_t) complex unit-norm codewords: row m, entry n is
    (1/sqrt(N_t)) * exp(-j 2 pi m n / M_bm)."""
    if N_t < 1 or M_bm < 1:
        raise ValueError("N_t and M_bm must be >= 1")
    m = np.arange(M_bm)[:, None]
    n = np.arange(N_t)[None, :]
    return np.exp(-2j * np.pi * m * n / M_bm) / np.sqrt(N_t)


def optimal_beam(channel, codebook, P_k: float, sigma2: float) -> np.ndarray:
    """Exhaustive search over the (M_bm, N_t) ``codebook`` for the (K, N_t)
    ``channel``: the (M_bm,) float64 rate of every codeword m,
    (1/K) * sum_k log2(1 + (P_k/sigma2) |h[k]^T w_m|^2), in one product.
    The optimal beam is its argmax, the smallest index of maximal rate.

    Broadcasting h over the (M_bm, N_t, 1) codeword stack runs the same
    matrix-vector kernel as ``h @ w_m`` for each codeword (a single GEMM
    rounds differently), and each mean runs over a contiguous row of the
    (M_bm, K) gains, so the rates equal those of a per-codeword loop bit for bit.
    """
    h = np.asarray(channel)
    if h.shape[1] != codebook.shape[1]:
        raise ValueError("channel and beam dimensions differ")
    gains = np.abs(np.matmul(h, codebook[:, :, None])[..., 0]) ** 2  # (M_bm, K)
    return np.mean(np.log2(1 + (P_k / sigma2) * gains), axis=1)


def full_outages(rates):
    """(n,) mask of the samples in full outage: no codeword has a positive rate."""
    return np.asarray(rates).max(axis=1) <= 0


def topg_accuracy(labels, top) -> float:
    """Fraction of samples whose label beam is among their Top-G codewords.

    ``top`` is the (n, G) integer array of each sample's G best codewords.
    """
    top = np.asarray(top)
    return np.count_nonzero((top == np.asarray(labels)[:, None]).any(axis=1)) / len(top)


def trr(rates, top) -> float:
    """Mean over samples of (best rate within Top-G) / (optimal rate).

    ``rates`` holds one row of codeword rates per sample, as ``optimal_beam``
    returns them, and ``top`` the (n, G) integer array of each sample's G
    best codewords. Samples in full outage are excluded; the caller reports
    how many.
    """
    rates = np.asarray(rates)
    ok = ~full_outages(rates)
    if not ok.any():
        raise ValueError("no valid samples for TRR")
    best = np.take_along_axis(rates, np.asarray(top), axis=1).max(axis=1)
    return float(np.mean(best[ok] / rates.max(axis=1)[ok]))
