"""DFT codebook, exhaustive beam search over all codeword rates, Top-G metrics."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BeamEvaluation:
    rates: np.ndarray      # (M_bm,) bits/s/Hz
    optimal_index: int     # smallest index among maximal rates


def dft_codebook(N_t: int, M_bm: int):
    """(M_bm, N_t) complex unit-norm codewords: row m, entry n is
    (1/sqrt(N_t)) * exp(-j 2 pi m n / M_bm)."""
    if N_t < 1 or M_bm < 1:
        raise ValueError("N_t and M_bm must be >= 1")
    m = np.arange(M_bm)[:, None]
    n = np.arange(N_t)[None, :]
    return np.exp(-2j * np.pi * m * n / M_bm) / np.sqrt(N_t)


def optimal_beam(channel, codebook, P_k: float, sigma2: float) -> BeamEvaluation:
    """Exhaustive search over the (M_bm, N_t) ``codebook`` for the (K, N_t)
    ``channel``: the rate of every codeword m,
    (1/K) * sum_k log2(1 + (P_k/sigma2) |h[k]^T w_m|^2), in one product.

    Broadcasting h over the (M_bm, N_t, 1) codeword stack runs the same
    matrix-vector kernel as ``h @ w_m`` for each codeword (a single GEMM
    rounds differently), and each mean runs over a contiguous row of the
    (M_bm, K) gains, so the rates equal those of a per-codeword loop bit for bit.
    """
    h = np.asarray(channel)
    if h.shape[1] != codebook.shape[1]:
        raise ValueError("channel and beam dimensions differ")
    gains = np.abs(np.matmul(h, codebook[:, :, None])[..., 0]) ** 2  # (M_bm, K)
    rates = np.mean(np.log2(1 + (P_k / sigma2) * gains), axis=1)
    return BeamEvaluation(rates=rates, optimal_index=int(np.argmax(rates)))


def topg_accuracy(labels, topg_sets, G: int) -> float:
    """Fraction of samples whose label beam falls in its Top-G set."""
    if len(labels) != len(topg_sets):
        raise ValueError("labels and Top-G sets have different lengths")
    for s in topg_sets:
        if len(s) != G:
            raise ValueError(f"every Top-G set must have exactly {G} indices")
    hits = sum(1 for lab, s in zip(labels, topg_sets) if int(lab) in s)
    return hits / len(labels)


def trr(rates, topg_sets, G: int) -> float:
    """Mean over samples of (best rate within Top-G) / (optimal rate).

    ``rates`` holds one row of codeword rates per sample, as
    ``optimal_beam(...).rates``. Samples with zero optimal rate are excluded;
    the caller reports how many.
    """
    if len(rates) != len(topg_sets):
        raise ValueError("rates and Top-G sets have different lengths")
    ratios = []
    for row, s in zip(rates, topg_sets):
        if len(s) != G:
            raise ValueError(f"every Top-G set must have exactly {G} indices")
        opt = row.max()
        if opt <= 0:
            continue
        best = max(row[i] for i in s)
        ratios.append(best / opt)
    if not ratios:
        raise ValueError("no valid samples for TRR")
    return float(np.mean(ratios))
